package netsim

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"
)

// tcpPair returns a connected loopback TCP pair.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

func TestPassThrough(t *testing.T) {
	a, b := tcpPair(t)
	ca := Link{}.Wrap(a)
	msg := []byte("hello windtunnel")
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		if _, err := ca.Write(msg); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, msg) {
		t.Errorf("got %q", buf)
	}
	// The counter is bumped after the underlying write returns, which
	// the reader can outrun; wait for Write itself.
	<-wrote
	_, written := ca.Stats()
	if written != int64(len(msg)) {
		t.Errorf("bytesWritten = %d, want %d", written, len(msg))
	}
}

func TestBandwidthPacing(t *testing.T) {
	a, b := tcpPair(t)
	// 1 MB/s link; send 100 KB => should take >= ~95 ms.
	ca := Link{BandwidthBytesPerSec: 1 << 20}.Wrap(a)
	payload := make([]byte, 100*1024)
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		for sent := 0; sent < len(payload); {
			n, err := ca.Write(payload[sent : sent+4096])
			if err != nil {
				t.Error(err)
				return
			}
			sent += n
		}
		done <- time.Since(start)
	}()
	if _, err := io.ReadFull(b, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	elapsed := <-done
	want := time.Duration(float64(len(payload)) / float64(1<<20) * float64(time.Second))
	if elapsed < want*8/10 {
		t.Errorf("100KB over 1MB/s link took %v, want >= %v", elapsed, want)
	}
	if elapsed > want*3 {
		t.Errorf("pacing too slow: %v for budget %v", elapsed, want)
	}
}

// TestBandwidthPacingProperty is the pacing contract as a property:
// for seeded random write-size mixes — tiny commands, mid-size frames,
// bulk segments — the achieved rate stays within ±10% of the link
// budget (plus a fixed scheduler allowance on the fast side).
func TestBandwidthPacingProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("timing property")
	}
	const bw = int64(2 << 20) // 2 MB/s keeps each trial ~100ms
	for _, seed := range []int64{1, 42, 1992} {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var sizes []int
			total := 0
			for total < 200*1024 {
				// Mix three regimes the windtunnel traffic actually has.
				var n int
				switch rng.Intn(3) {
				case 0:
					n = 1 + rng.Intn(64) // command-sized
				case 1:
					n = 256 + rng.Intn(4096) // frame-sized
				default:
					n = 8*1024 + rng.Intn(32*1024) // segment-sized
				}
				sizes = append(sizes, n)
				total += n
			}
			a, b := tcpPair(t)
			ca := Link{BandwidthBytesPerSec: bw}.Wrap(a)
			go func() {
				if _, err := io.Copy(io.Discard, b); err != nil {
					return
				}
			}()
			buf := make([]byte, 64*1024)
			start := time.Now()
			for _, n := range sizes {
				for sent := 0; sent < n; {
					chunk := n - sent
					if chunk > len(buf) {
						chunk = len(buf)
					}
					m, err := ca.Write(buf[:chunk])
					if err != nil {
						t.Fatal(err)
					}
					sent += m
				}
			}
			elapsed := time.Since(start)
			ideal := time.Duration(float64(total) / float64(bw) * float64(time.Second))
			// Never more than 10% faster than the budget allows; never
			// more than 10% slower plus a fixed allowance for scheduler
			// wakeup latency across many sleeps.
			if elapsed < ideal*9/10 {
				t.Errorf("seed %d: %d bytes in %v, >10%% over budget (ideal %v)",
					seed, total, elapsed, ideal)
			}
			if slack := 150 * time.Millisecond; elapsed > ideal*11/10+slack {
				t.Errorf("seed %d: %d bytes in %v, >10%% under budget (ideal %v)",
					seed, total, elapsed, ideal)
			}
		})
	}
}

func TestUnlimitedLinkIsFast(t *testing.T) {
	a, b := tcpPair(t)
	ca := Link{}.Wrap(a)
	payload := make([]byte, 1<<20)
	start := time.Now()
	go func() {
		for sent := 0; sent < len(payload); {
			n, err := ca.Write(payload[sent:])
			if err != nil {
				return
			}
			sent += n
		}
	}()
	if _, err := io.ReadFull(b, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("unthrottled 1MB took %v", elapsed)
	}
}

func TestLatency(t *testing.T) {
	a, b := tcpPair(t)
	ca := Link{Latency: 20 * time.Millisecond}.Wrap(a)
	start := time.Now()
	go ca.Write([]byte("x"))
	if _, err := io.ReadFull(b, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("latency not applied: %v", elapsed)
	}
}

func TestPipe(t *testing.T) {
	a, b := Pipe(Link{})
	go a.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Errorf("got %q", buf)
	}
	read, _ := b.Stats()
	if read != 4 {
		t.Errorf("reader stats = %d", read)
	}
}

func TestLinkConstantsMatchPaper(t *testing.T) {
	if UltraNetVME != 13*1024*1024 {
		t.Errorf("UltraNetVME = %d", UltraNetVME)
	}
	if UltraNetActual != 1*1024*1024 {
		t.Errorf("UltraNetActual = %d", UltraNetActual)
	}
	if UltraNetRated != 100*1024*1024 {
		t.Errorf("UltraNetRated = %d", UltraNetRated)
	}
}
