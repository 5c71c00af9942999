package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impulse/internal/colres"
	"impulse/internal/harness"
	"impulse/internal/service"
	"impulse/internal/store"
	"impulse/internal/twin"
)

// serveParams sizes the serve workload.
type serveParams struct {
	seed    int64
	trace   bool
	tmpdir  string
	shards  int // fleet shards
	clients int // client connections, closed loop and open loop alike
	batches int // measured miss batches, after one warm-up batch
	reboots int // fleet reboots in the restart phase; setup_s is their median CPU
	// hitRate and hitDur fix the open-loop hit phase; every twinEvery-th
	// scheduled request is a /v1/predict.
	hitRate   float64
	hitDur    time.Duration
	twinEvery int
	// tailLimit is the capacity search's limit on the hit latency at
	// tailPct of each step; the search tries each rate of ladder for
	// stepDur.
	tailLimit time.Duration
	ladder    []float64
	stepDur   time.Duration
}

// defaultServeParams sizes the workload for one run: one shard and one
// client connection per CPU, six measured miss batches of 60 novel specs
// (a p90 with 36 samples beyond it), and the open-loop phases scaled to
// the run's seconds.
func defaultServeParams(cfg config) serveParams {
	n := runtime.NumCPU()
	var ladder []float64
	for r := 500.0; r < 8000; r *= 1.25 {
		ladder = append(ladder, r)
	}
	return serveParams{
		seed: cfg.seed, trace: cfg.trace, tmpdir: os.TempDir(),
		shards: n, clients: n, batches: 6, reboots: 11,
		hitRate: 400, hitDur: cfg.seconds / 4, twinEvery: 10,
		tailLimit: 20 * time.Millisecond, ladder: ladder, stepDur: cfg.seconds / 30,
	}
}

// serveRun is the state of one serve run.
type serveRun struct {
	p     serveParams
	res   *result
	specs []genSpec
	// bodies[i][view] is spec i's body as fetched in the miss phase, and
	// ids[i] the ID of the job that computed it.
	bodies  []map[string][]byte
	ids     []string
	ok      []int // indices of the specs whose miss succeeded
	miss    []time.Duration
	missCPU time.Duration     // process CPU of the measured miss batches
	twin    map[string][]byte // family -> compact grid JSON of twin.Predict
	fams    []string

	root  string // temporary directory holding every store
	local *service.Service
	fl    *fleetHost
	urls  []string // every address a fleet of this run listened on
}

// runServe runs the serve workload: a miss phase of novel specs through
// a fresh fleet, a restart phase rebooting the fleet on its stores, an
// open-loop hit phase at a fixed rate with a share of /v1/predict, a
// capacity search, and the in-process reference executions every body
// is checked against. Whatever happens, it closes every listener, stops
// every service and router, and removes its temporary directory.
func runServe(ctx context.Context, p serveParams) (*result, error) {
	r := newServeRun(p)
	defer r.close()
	if err := r.start(); err != nil {
		return r.res, err
	}
	return r.res, r.run(ctx)
}

func newServeRun(p serveParams) *serveRun {
	return &serveRun{p: p, res: newResult(), twin: map[string][]byte{}}
}

// start generates the specs and the expected twin answers, makes the
// temporary directory and boots the fleet on it.
func (r *serveRun) start() error {
	var err error
	harness.ResetTraceCache()
	if r.specs, err = generateSpecs(r.p.seed, (r.p.batches+1)*missBatch); err != nil {
		return err
	}
	for _, f := range twin.Families() {
		pred, err := twin.Predict(f, false)
		if err != nil {
			return err
		}
		var buf, c bytes.Buffer
		if err := colres.WriteGridJSON(pred.Doc(), &buf); err != nil {
			return err
		}
		if err := json.Compact(&c, buf.Bytes()); err != nil {
			return err
		}
		r.twin[f] = c.Bytes()
		r.fams = append(r.fams, f)
	}
	if r.root, err = os.MkdirTemp(r.p.tmpdir, "perfbench-serve-"); err != nil {
		return err
	}
	r.local = service.New(service.Config{ArchiveDir: filepath.Join(r.root, "local")})
	return r.boot()
}

// boot starts a fleet on the run's stores and records its addresses.
func (r *serveRun) boot() error {
	fl, err := startFleet(filepath.Join(r.root, "stores"), r.p.shards, r.local)
	if err != nil {
		return err
	}
	r.fl = fl
	r.urls = append(r.urls, fl.front.url)
	for _, sh := range fl.shards {
		r.urls = append(r.urls, sh.srv.url)
	}
	return nil
}

// close stops the fleet and the local service and removes the temporary
// directory; it is safe at any point of a run.
func (r *serveRun) close() {
	if r.fl != nil {
		r.fl.stop()
		r.fl = nil
	}
	if r.local != nil {
		r.local.Close()
		r.local = nil
	}
	if r.root != "" {
		os.RemoveAll(r.root)
		r.root = ""
	}
}

// run runs the phases on the started fleet.
func (r *serveRun) run(ctx context.Context) error {
	if err := r.missPhase(ctx); err != nil {
		return err
	}
	if err := r.restartPhase(ctx); err != nil {
		return err
	}
	if err := r.hitPhase(ctx); err != nil {
		return err
	}
	if err := r.capacityPhase(ctx); err != nil {
		return err
	}
	if got := r.fl.shardSum("service.jobs_executed"); got != 0 {
		return checkf("shards executed %d jobs after the restart, want 0: every hit must come from a store", got)
	}
	if r.p.trace {
		if err := r.traceProbes(ctx); err != nil {
			return err
		}
	}
	r.fl.stop()
	r.fl = nil
	if r.p.trace {
		if err := r.storeProbes(filepath.Join(r.root, "stores"), filepath.Join(r.root, "put-probe")); err != nil {
			return err
		}
	}
	if err := r.verify(ctx); err != nil {
		return err
	}
	r.res.set("peak_rss_mb", peakRSSMB())
	return nil
}

// setTail reports the p-th percentile of xs as name, and says so on
// stderr when fewer than ten samples lie beyond it.
func (r *serveRun) setTail(name string, xs []float64, p float64) {
	if !tailSupported(len(xs), p) {
		fmt.Fprintf(os.Stderr, "perfbench: %s rests on %d samples, fewer than ten beyond p%g\n", name, len(xs), p)
	}
	r.res.set(name, percentile(xs, p))
}

// checkOwner checks that a routed job was served by the shard the
// router's rendezvous hash names for its spec hash: the response's shard
// field and the job ID's shard prefix must both be the owner.
func checkOwner(s submitted, wantHash, owner string) error {
	if s.Hash != wantHash {
		return checkf("job %s has spec hash %s, want %s", s.ID, s.Hash, wantHash)
	}
	if s.Shard != owner || !strings.HasPrefix(s.ID, owner+".") {
		return checkf("job %s (hash %s) served by shard %q, but Router.Owner is %q", s.ID, s.Hash, s.Shard, owner)
	}
	return nil
}

// checkBody checks a fetched body byte for byte against the one expected.
func checkBody(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return checkf("%s: body differs at byte %d (%d bytes, want %d)", what, i, len(got), len(want))
}

// checkPredict checks a /v1/predict answer's grid against twin.Predict's.
func checkPredict(family string, body, want []byte) error {
	var ans struct {
		Family string          `json:"family"`
		Grid   json.RawMessage `json:"grid"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return checkf("predict %s: decoding answer: %v", family, err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, ans.Grid); err != nil {
		return checkf("predict %s: grid is not JSON: %v", family, err)
	}
	if ans.Family != family {
		return checkf("predict %s answered for family %q", family, ans.Family)
	}
	return checkBody("predict "+family, got.Bytes(), want)
}

// checkExecutions checks that the shards ran every distinct spec exactly
// once between them.
func checkExecutions(executed uint64, distinct int) error {
	if executed != uint64(distinct) {
		return checkf("shards executed %d jobs for %d distinct specs", executed, distinct)
	}
	return nil
}

// firstErr keeps the first correctness error several goroutines report.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstErr) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// failure sorts an operation's error: a wrong output or a cancelled run
// is returned, anything else is the operation failing, which the caller
// counts.
func failure(ctx context.Context, err error) (counted bool, fatal error) {
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, errCheck):
		return false, err
	case ctx.Err() != nil:
		return false, ctx.Err()
	}
	fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	return true, nil
}

// missPhase submits every novel spec through the router in batches of
// missBatch, closed loop from p.clients connections, and fetches each
// result; latency is submit to result. Grid specs then have each view
// fetched once, untimed. The first batch warms the process up and is not
// measured; wall_s is the wall time of the measured batches less the
// time the hypervisor stole from each CPU meanwhile.
func (r *serveRun) missPhase(ctx context.Context) error {
	n := len(r.specs)
	r.bodies = make([]map[string][]byte, n)
	r.miss = make([]time.Duration, n)
	r.ids = make([]string, n)
	failed := make([]bool, n)
	var ops, fails atomic.Int64
	var fe firstErr
	var missWall time.Duration
	for lo := 0; lo < n; lo += missBatch {
		hi := min(lo+missBatch, n)
		var next atomic.Int64
		next.Store(int64(lo - 1))
		var wg sync.WaitGroup
		t0, c0, s0 := time.Now(), cpuTime(), stolen()
		for w := 0; w < r.p.clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := newClient(r.fl.front.url)
				defer c.close()
				for {
					i := int(next.Add(1))
					if i >= hi || ctx.Err() != nil || fe.get() != nil {
						return
					}
					r.bodies[i] = map[string][]byte{}
					for _, view := range r.specs[i].views {
						ops.Add(1)
						counted, fatal := failure(ctx, r.missOp(ctx, c, i, view))
						if fatal != nil {
							fe.set(fatal)
							return
						}
						if counted {
							fails.Add(1)
							failed[i] = true
							break
						}
					}
				}
			}()
		}
		wg.Wait()
		wall, cpu, stole := time.Since(t0), cpuTime()-c0, stolen()-s0
		fmt.Fprintf(os.Stderr, "serve miss batch %d: wall %.3fs stolen %.3fs cpu %.3fs\n",
			lo/missBatch, wall.Seconds(), stole.Seconds(), cpu.Seconds())
		if lo > 0 {
			missWall += wall - stole
			r.missCPU += cpu
		}
		if fe.get() != nil || ctx.Err() != nil {
			break
		}
	}
	r.res.addPhase("miss", ops.Load(), fails.Load())
	if err := fe.get(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var lat []float64
	for i := range r.specs {
		if !failed[i] {
			r.ok = append(r.ok, i)
			if i >= missBatch {
				lat = append(lat, ms(r.miss[i]))
			}
		}
	}
	if len(r.ok) == 0 {
		return fmt.Errorf("every miss failed")
	}
	r.res.set("wall_s", missWall.Seconds())
	r.setTail("miss_p50_ms", lat, 50)
	r.setTail("miss_p90_ms", lat, 90)
	return checkExecutions(r.fl.shardSum("service.jobs_executed"), len(r.ok))
}

// missOp runs spec i's miss (view "") or one untimed view fetch.
func (r *serveRun) missOp(ctx context.Context, c *client, i int, view string) error {
	g := r.specs[i]
	if view != "" {
		b, err := c.result(ctx, r.ids[i], view)
		if err != nil {
			return err
		}
		r.bodies[i][view] = b
		return nil
	}
	t0 := time.Now()
	s, err := c.submit(ctx, g.body, 202)
	if err != nil {
		return err
	}
	if err := checkOwner(s, g.hash, r.fl.router.Owner(g.hash)); err != nil {
		return err
	}
	b, err := c.result(ctx, s.ID, "")
	if err != nil {
		return err
	}
	r.miss[i] = time.Since(t0)
	r.bodies[i][""] = b
	r.ids[i] = s.ID
	return nil
}

// restartPhase closes the fleet and reboots it on the same stores
// p.reboots times; setup_s is the median process CPU from starting the
// shards to the router reporting every shard ready. Nothing else in the
// process works meanwhile, so the CPU is the reboot's own, and unlike
// wall time it leaves out the host taking the CPU away.
func (r *serveRun) restartPhase(ctx context.Context) error {
	var boots []float64
	for k := 0; k < r.p.reboots; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.fl.stop()
		r.fl = nil
		t0, c0 := time.Now(), cpuTime()
		if err := r.boot(); err != nil {
			return err
		}
		fl := r.fl
		for fl.healthy() < uint64(r.p.shards) {
			if time.Since(t0) > 30*time.Second || ctx.Err() != nil {
				return fmt.Errorf("only %d of %d shards ready after reboot", fl.healthy(), r.p.shards)
			}
			time.Sleep(time.Millisecond)
		}
		wall, cpu := time.Since(t0), cpuTime()-c0
		fmt.Fprintf(os.Stderr, "serve reboot %d: wall %.4fs cpu %.4fs\n", k, wall.Seconds(), cpu.Seconds())
		boots = append(boots, cpu.Seconds())
		if got := fl.shardSum("service.jobs_recovered"); got != uint64(len(r.ok)) {
			return checkf("reboot %d recovered %d results, want %d", k, got, len(r.ok))
		}
	}
	r.res.addPhase("restart", int64(r.p.reboots), 0)
	r.res.set("setup_s", median(boots))
	return nil
}

// schedOp is one scheduled open-loop request: a hit on spec/view, or a
// /v1/predict for family.
type schedOp struct {
	spec   int
	view   string
	family string
}

// schedule draws n requests: every twinEvery-th a prediction, the rest
// hits on a random successful spec in a random one of its views.
func (r *serveRun) schedule(rng *rand.Rand, n int) []schedOp {
	ops := make([]schedOp, n)
	for i := range ops {
		if r.p.twinEvery > 0 && i%r.p.twinEvery == r.p.twinEvery-1 {
			ops[i] = schedOp{family: pick(rng, r.fams)}
			continue
		}
		s := pick(rng, r.ok)
		ops[i] = schedOp{spec: s, view: pick(rng, r.specs[s].views)}
	}
	return ops
}

// hitOp runs one scheduled request through c and checks its answer.
func (r *serveRun) hitOp(ctx context.Context, c *client, op schedOp) error {
	if op.family != "" {
		b, err := c.predict(ctx, []byte(`{"family":"`+op.family+`"}`))
		if err != nil {
			return err
		}
		return checkPredict(op.family, b, r.twin[op.family])
	}
	g := r.specs[op.spec]
	s, err := c.submit(ctx, g.body, 200)
	if err != nil {
		return err
	}
	if !s.Deduped {
		return checkf("hit on %s was not served from the cache", g.hash)
	}
	if err := checkOwner(s, g.hash, r.fl.router.Owner(g.hash)); err != nil {
		return err
	}
	b, err := c.result(ctx, s.ID, op.view)
	if err != nil {
		return err
	}
	return checkBody(fmt.Sprintf("hit on %s view %q", g.hash, op.view), b, r.bodies[op.spec][op.view])
}

// loadResult is what one open-loop run measured, in ms per request.
type loadResult struct {
	hitLat, twinLat, lag []float64
	failed               int64
	cpu                  time.Duration
}

// openLoop sends ops[i] at start + i/rate from p.clients connections:
// a request whose connections are all busy waits, and its latency counts
// from when it was due, so a stall shows in every request behind it.
func (r *serveRun) openLoop(ctx context.Context, rate float64, ops []schedOp) (loadResult, error) {
	n := len(ops)
	lat := make([]float64, n)
	lag := make([]float64, n)
	failed := make([]bool, n)
	var next atomic.Int64
	next.Store(-1)
	var fe firstErr
	var wg sync.WaitGroup
	c0 := cpuTime()
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < r.p.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(r.fl.front.url)
			defer c.close()
			for {
				i := int(next.Add(1))
				if i >= n || ctx.Err() != nil || fe.get() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				begin := time.Now()
				err := r.hitOp(ctx, c, ops[i])
				end := time.Now()
				lag[i], lat[i] = ms(begin.Sub(due)), ms(end.Sub(due))
				counted, fatal := failure(ctx, err)
				if fatal != nil {
					fe.set(fatal)
					return
				}
				failed[i] = counted
			}
		}()
	}
	wg.Wait()
	lr := loadResult{cpu: cpuTime() - c0, lag: lag}
	if err := fe.get(); err != nil {
		return lr, err
	}
	if err := ctx.Err(); err != nil {
		return lr, err
	}
	for i, op := range ops {
		switch {
		case failed[i]:
			lr.failed++
		case op.family != "":
			lr.twinLat = append(lr.twinLat, lat[i])
		default:
			lr.hitLat = append(lr.hitLat, lat[i])
		}
	}
	return lr, nil
}

// hitPhase runs the fixed-rate open-loop phase; cpu_s is the process
// CPU it took, every request's router, shard, store and rendering work.
func (r *serveRun) hitPhase(ctx context.Context) error {
	n := int(r.p.hitRate * r.p.hitDur.Seconds())
	if n < 1 {
		n = 1
	}
	ops := r.schedule(rand.New(rand.NewSource(r.p.seed+1)), n)
	lr, err := r.openLoop(ctx, r.p.hitRate, ops)
	r.res.addPhase("hit", int64(n), lr.failed)
	if err != nil {
		return err
	}
	r.setTail("hit_p50_ms", lr.hitLat, 50)
	r.setTail("hit_p99_ms", lr.hitLat, 99)
	r.setTail("twin_p50_ms", lr.twinLat, 50)
	r.setTail("load.lag_ms", lr.lag, 99)
	r.res.set("cpu_s", lr.cpu.Seconds())
	r.res.set("hit_cpu_us_per_req", us(lr.cpu)/float64(n))
	return nil
}

// capacityPhase climbs the rate ladder, p.stepDur per rate, and reports
// the highest rate at which every request succeeded, the hit latency at
// tailPct of the step's hits stayed within p.tailLimit and the
// generator's lag did not grow. A rate that fails is tried once more
// before the search ends, so that one stall of a shared host does not
// decide it.
func (r *serveRun) capacityPhase(ctx context.Context) error {
	rng := rand.New(rand.NewSource(r.p.seed + 2))
	var attempted, failed int64
	var stepErr error
	limit := ms(r.p.tailLimit)
	step := func(rate float64) bool {
		if stepErr != nil {
			return false
		}
		n := int(rate * r.p.stepDur.Seconds())
		if n < 1 {
			n = 1
		}
		lr, err := r.openLoop(ctx, rate, r.schedule(rng, n))
		attempted += int64(n)
		failed += lr.failed
		if err != nil {
			stepErr = err
			return false
		}
		return lr.failed == 0 && percentile(lr.hitLat, tailPct(len(lr.hitLat))) <= limit && !lagGrows(lr.lag, limit/2)
	}
	best := capacity(r.p.ladder, func(rate float64) bool { return step(rate) || step(rate) })
	r.res.addPhase("capacity", attempted, failed)
	if stepErr != nil {
		return stepErr
	}
	r.res.set("hit_capacity_rps", best)
	return nil
}

// verify executes every successful spec in-process with service.Execute,
// apart from the fleet and with a fresh trace cache, from p.clients
// goroutines, and checks each miss body against it: the raw output, and
// for grids every view rendered from the reference's columnar blob. It
// also counts the simulated accesses the measured miss batches did.
func (r *serveRun) verify(ctx context.Context) error {
	harness.ResetTraceCache()
	n := len(r.specs)
	accesses := make([]uint64, n)
	exec := make([]time.Duration, n)
	var next atomic.Int64
	next.Store(-1)
	var fe firstErr
	var wg sync.WaitGroup
	for w := 0; w < r.p.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1))
				if k >= len(r.ok) || fe.get() != nil {
					return
				}
				if err := ctx.Err(); err != nil {
					fe.set(err)
					return
				}
				i := r.ok[k]
				t0 := time.Now()
				want, err := service.Execute(ctx, r.specs[i].spec, nil)
				exec[i] = time.Since(t0)
				if err == nil {
					accesses[i] = countAccesses(want.Counters)
					err = r.checkMiss(i, want)
				}
				if err != nil {
					fe.set(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r.res.addPhase("verify", int64(len(r.ok)), 0)
	if err := fe.get(); err != nil {
		return err
	}
	var measured uint64
	for i := missBatch; i < n; i++ {
		measured += accesses[i]
	}
	r.res.set("sim_accesses_per_cpu_ms", float64(measured)/ms(r.missCPU))
	// The share of execution time each spec class took, which batchMix
	// is meant to keep about equal for cg, diag and table1.
	share := map[string]time.Duration{}
	var total time.Duration
	for _, i := range r.ok {
		share[r.specs[i].class] += exec[i]
		total += exec[i]
	}
	fmt.Fprint(os.Stderr, "serve execution share by class:")
	for _, class := range classOrder {
		fmt.Fprintf(os.Stderr, " %s %.1f%%", class, 100*share[class].Seconds()/total.Seconds())
	}
	fmt.Fprintln(os.Stderr)
	if !r.p.trace {
		return nil
	}
	var execMS, overhead []float64
	var blobs [][]byte
	for _, i := range r.ok {
		execMS = append(execMS, ms(exec[i]))
		if i >= missBatch {
			overhead = append(overhead, ms(r.miss[i]-exec[i]))
		}
		if r.specs[i].grid {
			blobs = append(blobs, r.bodies[i]["columnar"])
		}
	}
	r.res.set("service.execute_ms", median(execMS))
	r.res.set("service.miss_overhead_ms", median(overhead))
	return recordColres(r.res, blobs)
}

// checkMiss checks spec i's miss bodies against its reference result.
func (r *serveRun) checkMiss(i int, want *service.Result) error {
	g := r.specs[i]
	if err := checkBody("miss on "+g.hash, r.bodies[i][""], want.Output); err != nil {
		return err
	}
	if !g.grid {
		return nil
	}
	doc, err := colres.Decode(want.Columnar)
	if err != nil {
		return fmt.Errorf("reference columnar blob of %s: %v", g.hash, err)
	}
	var js, txt bytes.Buffer
	if err := colres.WriteGridJSON(doc, &js); err != nil {
		return err
	}
	if err := colres.RenderText(doc, &txt); err != nil {
		return err
	}
	for view, w := range map[string][]byte{"json": js.Bytes(), "text": txt.Bytes(), "columnar": want.Columnar} {
		if err := checkBody(fmt.Sprintf("miss on %s view %s", g.hash, view), r.bodies[i][view], w); err != nil {
			return err
		}
	}
	return nil
}

// countAccesses sums the Loads and Stores of every row in a job's
// counter dump ("rowNNN.<label>.Loads <n>" lines).
func countAccesses(counters []byte) uint64 {
	var sum uint64
	for _, line := range strings.Split(string(counters), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "row") ||
			!(strings.HasSuffix(name, ".Loads") || strings.HasSuffix(name, ".Stores")) {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			sum += v
		}
	}
	return sum
}

// traceRepeats is how many times each traced probe repeats per input.
const traceRepeats = 20

// traceProbes times, from outside, calls into the service, fleet and
// twin layers on the rebooted fleet.
func (r *serveRun) traceProbes(ctx context.Context) error {
	var spec, submit []float64
	for _, i := range r.ok {
		g := r.specs[i]
		for k := 0; k < traceRepeats; k++ {
			t0 := time.Now()
			s, err := service.ParseSpec(g.body)
			if err == nil && s.Hash() != g.hash {
				err = checkf("ParseSpec+Hash of %s gave %s", g.body, s.Hash())
			}
			spec = append(spec, us(time.Since(t0)))
			if err != nil {
				return err
			}
		}
		sh := r.fl.shard(r.fl.router.Owner(g.hash))
		t0 := time.Now()
		_, deduped, err := sh.svc.Submit(g.spec)
		submit = append(submit, us(time.Since(t0)))
		if err != nil || !deduped {
			return checkf("in-process submit of cached %s: deduped=%v err=%v", g.hash, deduped, err)
		}
	}
	r.res.set("service.spec_us", median(spec))
	r.res.set("service.submit_hit_us", median(submit))

	const ownerRounds = 1000
	t0 := time.Now()
	for k := 0; k < ownerRounds; k++ {
		for _, i := range r.ok {
			r.fl.router.Owner(r.specs[i].hash)
		}
	}
	r.res.set("fleet.owner_ns", float64(time.Since(t0).Nanoseconds())/float64(ownerRounds*len(r.ok)))

	// The same hits, alternately straight to the owner shard and through
	// the router, closed loop on one connection each.
	rc := newClient(r.fl.front.url)
	defer rc.close()
	direct := map[string]*client{}
	for _, sh := range r.fl.shards {
		direct[sh.name] = newClient(sh.srv.url)
		defer direct[sh.name].close()
	}
	var viaShard, viaRouter []float64
	ops := r.schedule(rand.New(rand.NewSource(r.p.seed+3)), 400)
	for _, op := range ops {
		if op.family != "" {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		g := r.specs[op.spec]
		owner := r.fl.router.Owner(g.hash)
		dc := direct[owner]
		t0 := time.Now()
		s, err := dc.submit(ctx, g.body, 200)
		if err != nil {
			return err
		}
		b, err := dc.result(ctx, s.ID, op.view)
		if err != nil {
			return err
		}
		viaShard = append(viaShard, us(time.Since(t0)))
		if err := checkBody("direct hit on "+g.hash, b, r.bodies[op.spec][op.view]); err != nil {
			return err
		}
		t0 = time.Now()
		if err := r.hitOp(ctx, rc, op); err != nil {
			return err
		}
		viaRouter = append(viaRouter, us(time.Since(t0)))
	}
	r.res.addPhase("trace", int64(len(r.ok)*(traceRepeats+1)+2*len(viaShard)), 0)
	r.res.set("service.http_hit_us", median(viaShard))
	r.res.set("fleet.route_overhead_us", median(viaRouter)-median(viaShard))

	for _, f := range r.fams {
		var t []float64
		for k := 0; k < traceRepeats; k++ {
			t0 := time.Now()
			if _, err := twin.Predict(f, false); err != nil {
				return err
			}
			t = append(t, us(time.Since(t0)))
		}
		r.res.set("twin.predict_us."+f, median(t))
	}
	return nil
}

// storeProbes times the result store over the stopped fleet's archives:
// Open plus GC of every shard's store, the first Get of each result
// (read, verify, map), and Put of every result into a fresh store.
func (r *serveRun) storeProbes(stores, scratch string) error {
	const budget = 256 << 20 // the service's default store budget
	var open, get, put []float64
	type entry struct {
		data []byte
		meta store.Meta
	}
	var entries []entry
	for k := 0; k < 5; k++ {
		var total time.Duration
		for i := 0; i < r.p.shards; i++ {
			t0 := time.Now()
			st, err := store.Open(filepath.Join(stores, fmt.Sprintf("shard-%d", i)))
			if err != nil {
				return fmt.Errorf("opening shard %d's store: %v", i, err)
			}
			st.GC(budget)
			total += time.Since(t0)
			for _, h := range st.Hashes() {
				t0 := time.Now()
				b, m, ok := st.Get(h)
				get = append(get, us(time.Since(t0)))
				if !ok {
					return checkf("store of shard %d lost result %s", i, h)
				}
				if k == 0 {
					entries = append(entries, entry{append([]byte(nil), b.Data...), m})
				}
			}
			st.Close()
		}
		open = append(open, ms(total))
	}
	st, err := store.Open(scratch)
	if err != nil {
		return err
	}
	defer st.Close()
	for _, e := range entries {
		t0 := time.Now()
		if _, err := st.Put(e.data, e.meta); err != nil {
			return fmt.Errorf("store put: %v", err)
		}
		put = append(put, ms(time.Since(t0)))
	}
	r.res.set("store.open_ms", median(open))
	r.res.set("store.get_us", median(get))
	r.res.set("store.put_ms", median(put))
	return nil
}
