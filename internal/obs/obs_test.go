package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugServerServesVars(t *testing.T) {
	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(body), "memstats") {
		t.Error("expvar payload missing memstats")
	}
	resp, err = http.Get("http://" + d.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof status %d", resp.StatusCode)
	}
}

// TestPublishFuncExportsArbitraryStats covers the subsystem-stats path
// (vwserver publishes the timestep cache's counters through it).
func TestPublishFuncExportsArbitraryStats(t *testing.T) {
	type cacheish struct{ Hits, Misses int64 }
	cur := cacheish{Hits: 1}
	PublishFunc("obs_test.cache", func() any { return cur })
	v := expvar.Get("obs_test.cache")
	if v == nil {
		t.Fatal("PublishFunc did not register the var")
	}
	var got cacheish
	if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
		t.Fatalf("published value is not JSON: %v", err)
	}
	if got != cur {
		t.Errorf("published = %+v, want %+v", got, cur)
	}
	cur = cacheish{Hits: 5, Misses: 2}
	if err := json.Unmarshal([]byte(v.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got != cur {
		t.Errorf("published var is not live: %+v, want %+v", got, cur)
	}
	// Published vars ride the same /debug/vars payload DebugServer
	// serves.
	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"obs_test.cache"`) {
		t.Error("/debug/vars payload missing the published var")
	}
}
