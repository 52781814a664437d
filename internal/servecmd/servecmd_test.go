package servecmd

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestServeFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	// cqa-serve has no -shards or -hedge flag (scatter-gather is the
	// -cluster router's): passing one is a usage error, -h lists neither.
	for _, flag := range []string{"-shards=4", "-hedge=2ms"} {
		if code := Run([]string{flag}, &out, &errb); code != 2 {
			t.Errorf("%s should exit 2, got %d", flag, code)
		}
	}
	errb.Reset()
	Run([]string{"-h"}, &out, &errb)
	if !strings.Contains(errb.String(), "\n  -cluster-hedge ") {
		t.Fatalf("unexpected -h layout:\n%s", errb.String())
	}
	for _, gone := range []string{"-shards", "-hedge"} {
		if strings.Contains(errb.String(), "\n  "+gone+" ") {
			t.Errorf("cqa-serve -h still lists %s:\n%s", gone, errb.String())
		}
	}
}

// TestServeWALFlag boots the serve loop with -wal twice over the same
// directory: the first run journals an upload and a delta, the second
// must replay both and restore the version chain.
func TestServeWALFlag(t *testing.T) {
	dir := t.TempDir()
	run := func(work func(base string)) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + ln.Addr().String()
		ln.Close()
		var out, errb bytes.Buffer
		done := make(chan int, 1)
		go func() {
			done <- Run([]string{"-addr", strings.TrimPrefix(base, "http://"), "-quiet", "-wal", dir}, &out, &errb)
		}()
		client := &http.Client{Timeout: time.Second}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if resp, err := client.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never came up: %s", errb.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		work(base)
		p, _ := os.FindProcess(os.Getpid())
		p.Signal(syscall.SIGTERM)
		if code := <-done; code != 0 {
			t.Fatalf("serve exit %d: %s", code, errb.String())
		}
		return out.String()
	}

	client := &http.Client{Timeout: time.Second}
	run(func(base string) {
		req, _ := http.NewRequest("PUT", base+"/v1/db/prod", strings.NewReader("R(a | 1)\n"))
		if resp, err := client.Do(req); err != nil || resp.StatusCode != 200 {
			t.Fatalf("put: %v %v", err, resp)
		}
		resp, err := client.Post(base+"/v1/db/prod/facts", "application/json",
			strings.NewReader(`{"insert": ["R(b | 2)"]}`))
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("mutate: %v %v", err, resp)
		}
	})

	out := run(func(base string) {
		resp, err := client.Get(base + "/v1/db/prod")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info struct {
			Version uint64 `json:"version"`
			Facts   int    `json:"facts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if info.Version != 2 || info.Facts != 2 {
			t.Errorf("restored db = %+v, want version 2 with 2 facts", info)
		}
	})
	if !strings.Contains(out, "replayed 2 records") {
		t.Errorf("boot banner missing replay count:\n%s", out)
	}
}
