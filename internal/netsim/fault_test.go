package netsim

import (
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestFaultResetOnWrite(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultReset, AtOp: 1}}}
	fc, peer := FaultPipe(plan)
	defer peer.Close()
	if _, err := fc.Write([]byte("doomed")); !errors.Is(err, errReset) {
		t.Fatalf("write err = %v, want ErrReset", err)
	}
	// The connection is dead for every later operation.
	if _, err := fc.Write([]byte("x")); !errors.Is(err, errReset) {
		t.Errorf("post-reset write err = %v", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, errReset) {
		t.Errorf("post-reset read err = %v", err)
	}
	// The peer observes the closed pipe.
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Error("peer read succeeded after reset")
	}
}

func TestFaultResetCountsBothDirections(t *testing.T) {
	// Reset at total op 3: read, write, then the next write dies.
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultReset, AtOp: 3}}}
	fc, peer := FaultPipe(plan)
	defer fc.Close()
	defer peer.Close()
	go peer.Write([]byte("ab"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(fc, buf); err != nil { // op 1
		t.Fatal(err)
	}
	go io.Copy(io.Discard, peer)
	if _, err := fc.Write([]byte("ok")); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := fc.Write([]byte("boom")); !errors.Is(err, errReset) { // op 3
		t.Fatalf("third op err = %v, want ErrReset", err)
	}
	fired := fc.Fired()
	if len(fired) != 1 || fired[0].Kind != FaultReset || fired[0].Op != 3 {
		t.Errorf("fired = %+v", fired)
	}
}

func TestStallReadHonorsDeadline(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultStallRead, AtOp: 1}}} // stall forever
	fc, peer := FaultPipe(plan)
	defer fc.Close()
	defer peer.Close()
	fc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := fc.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

func TestStallReadReleasedByClose(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultStallRead, AtOp: 1}}}
	fc, peer := FaultPipe(plan)
	defer peer.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	fc.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("stalled read returned nil after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not release stalled read")
	}
}

func TestStallWithManualClock(t *testing.T) {
	clock := NewManualClock()
	plan := &FaultPlan{
		Clock:  clock,
		Faults: []Fault{{Kind: FaultStallRead, AtOp: 1, Duration: time.Hour}},
	}
	fc, peer := FaultPipe(plan)
	defer fc.Close()
	defer peer.Close()
	go peer.Write([]byte("x"))
	got := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(fc, make([]byte, 1))
		got <- err
	}()
	// Wait for the read to park in the stall, then advance virtual time
	// past it: no wall-clock hour needed.
	deadline := time.Now().Add(5 * time.Second)
	for clock.Waiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if clock.Waiters() == 0 {
		t.Fatal("stall never parked on the manual clock")
	}
	clock.Advance(time.Hour)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("read after advanced stall: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never completed after clock advance")
	}
}

func TestTruncateWrite(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultTruncateWrite, AtOp: 1, KeepBytes: 3}}}
	fc, peer := FaultPipe(plan)
	defer peer.Close()
	writeErr := make(chan error, 1)
	go func() {
		_, err := fc.Write([]byte("abcdef"))
		writeErr <- err
	}()
	buf := make([]byte, 3)
	if _, err := io.ReadFull(peer, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Errorf("kept bytes = %q", buf)
	}
	if err := <-writeErr; !errors.Is(err, errReset) {
		t.Errorf("truncated write err = %v", err)
	}
	// The rest never arrives: the pipe is closed.
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Error("read past truncation succeeded")
	}
}

func TestDropWritePartition(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultDropWrite, AtOp: 2}}}
	fc, peer := FaultPipe(plan)
	defer fc.Close()
	defer peer.Close()
	go func() {
		fc.Write([]byte("aa")) // op 1: delivered
		fc.Write([]byte("bb")) // op 2: partition starts, dropped
		fc.Write([]byte("cc")) // still dropped
	}()
	buf := make([]byte, 2)
	if _, err := io.ReadFull(peer, buf); err != nil || string(buf) != "aa" {
		t.Fatalf("first write: %q, %v", buf, err)
	}
	peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := peer.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("partitioned bytes arrived: %q err=%v", buf, err)
	}
}

func TestDropReadPartitionKeepsWritesFlowing(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultDropRead, AtOp: 1}}}
	fc, peer := FaultPipe(plan)
	defer fc.Close()
	defer peer.Close()
	// Reads block (one-way partition)…
	fc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partitioned read err = %v", err)
	}
	// …while the other direction still delivers.
	go fc.Write([]byte("out"))
	buf := make([]byte, 3)
	if _, err := io.ReadFull(peer, buf); err != nil || string(buf) != "out" {
		t.Fatalf("outbound through read-partition: %q, %v", buf, err)
	}
}

func TestChaosPlansAreDeterministic(t *testing.T) {
	a := Chaos(42, 10, 100)
	b := Chaos(42, 10, 100)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different plans:\n%+v\n%+v", a.Faults, b.Faults)
	}
	c := Chaos(43, 10, 100)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Error("different seeds produced identical plans")
	}
	only := Chaos(7, 20, 50, FaultReset, FaultStallRead)
	for _, f := range only.Faults {
		if f.Kind != FaultReset && f.Kind != FaultStallRead {
			t.Errorf("kind filter violated: %v", f.Kind)
		}
	}
}

func TestSamePlanFiresIdentically(t *testing.T) {
	// Two runs of the same op script against the same plan fire the
	// same faults at the same ops.
	run := func() []FiredFault {
		plan := &FaultPlan{Faults: []Fault{
			{Kind: FaultStallWrite, AtOp: 2, Duration: time.Millisecond},
			{Kind: FaultReset, AtOp: 5},
		}}
		fc, peer := FaultPipe(plan)
		defer fc.Close()
		defer peer.Close()
		go io.Copy(io.Discard, peer)
		for i := 0; i < 5; i++ {
			fc.Write([]byte("op"))
		}
		return fc.Fired()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fired sequences differ:\n%+v\n%+v", a, b)
	}
	want := []FiredFault{{Kind: FaultStallWrite, Op: 2}, {Kind: FaultReset, Op: 5}}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("fired = %+v, want %+v", a, want)
	}
}

func TestFaultConnPassThrough(t *testing.T) {
	// An empty plan must be a transparent conn.
	fc, peer := FaultPipe(&FaultPlan{})
	defer fc.Close()
	defer peer.Close()
	go peer.Write([]byte("clean"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(fc, buf); err != nil || string(buf) != "clean" {
		t.Fatalf("pass-through read: %q, %v", buf, err)
	}
}

var _ net.Conn = (*FaultConn)(nil)
