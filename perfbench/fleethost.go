package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"impulse/internal/fleet"
	"impulse/internal/service"
)

// server is one HTTP server on a loopback listener, served from a
// goroutine that close waits for.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops accepting, lets in-flight requests finish for a moment,
// then cuts whatever is left, and waits for the serving goroutine.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.done
}

// shardHost is one fleet shard: a service with its own persistent store,
// served on its own listener.
type shardHost struct {
	name, dir string
	svc       *service.Service
	srv       *server
}

// fleetHost is the in-process fleet: a router in front of the shards.
type fleetHost struct {
	shards []*shardHost
	router *fleet.Router
	front  *server
}

// shardCache is each shard's result cache size in jobs (impulsed's
// -cache, default 128). It must hold every result a shard owns, or the
// cache evicts results from the store and hits turn back into misses.
const shardCache = 1024

// startFleet boots n shards on root/shard-<i> (recovering whatever their
// stores hold) and a router over them, reusing local for the router's
// twin tier. It returns once the router has polled every shard; the
// caller checks that all are ready. On error everything started is
// stopped again.
func startFleet(root string, n int, local *service.Service) (*fleetHost, error) {
	f := &fleetHost{}
	var cfgs []fleet.ShardConfig
	for i := 0; i < n; i++ {
		sh := &shardHost{name: fmt.Sprintf("s%d", i), dir: filepath.Join(root, fmt.Sprintf("shard-%d", i))}
		sh.svc = service.New(service.Config{ArchiveDir: sh.dir, CacheSize: shardCache})
		srv, err := listen(sh.svc.Handler())
		if err != nil {
			sh.svc.Close()
			f.stop()
			return nil, err
		}
		sh.srv = srv
		f.shards = append(f.shards, sh)
		cfgs = append(cfgs, fleet.ShardConfig{Name: sh.name, URL: srv.url})
	}
	rt, err := fleet.New(fleet.Config{Shards: cfgs, Local: local})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	if f.front, err = listen(rt.Handler()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// healthy is the number of shards the router currently reports ready.
func (f *fleetHost) healthy() uint64 {
	v, _ := f.router.Registry().Value("fleet.shards_healthy")
	return v
}

// shardSum adds a counter over every shard's service.
func (f *fleetHost) shardSum(name string) uint64 {
	var sum uint64
	for _, sh := range f.shards {
		v, _ := sh.svc.Registry().Value(name)
		sum += v
	}
	return sum
}

func (f *fleetHost) shard(name string) *shardHost {
	for _, sh := range f.shards {
		if sh.name == name {
			return sh
		}
	}
	return nil
}

// stop closes the router's listener and poller, then every shard's
// listener and service. The local service and the store directories
// are left to the caller.
func (f *fleetHost) stop() {
	if f.front != nil {
		f.front.close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, sh := range f.shards {
		if sh.srv != nil {
			sh.srv.close()
		}
		sh.svc.Close()
	}
}

// client talks to one base URL over a single connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 30 * time.Second}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submitted is the part of a submit response the benchmark checks.
type submitted struct {
	ID      string `json:"id"`
	Hash    string `json:"hash"`
	Deduped bool   `json:"deduped"`
	Shard   string `json:"shard"`
}

func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		// The program answered, but not as asked: the operation failed,
		// which is counted, not a wrong output.
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// submit posts a spec and expects want (202 for a new job, 200 for a
// deduplicated or cached one).
func (c *client) submit(ctx context.Context, body []byte, want int) (submitted, error) {
	var s submitted
	b, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, want)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("decoding submit response: %v", err)
	}
	return s, nil
}

// result fetches a job's result (waiting for it) in the given view.
func (c *client) result(ctx context.Context, id, view string) ([]byte, error) {
	path := "/v1/jobs/" + id + "/result?wait=120s"
	if view != "" {
		path += "&view=" + view
	}
	return c.do(ctx, http.MethodGet, path, nil, http.StatusOK)
}

func (c *client) predict(ctx context.Context, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/predict", body, http.StatusOK)
}
