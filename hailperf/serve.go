package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// Serve's open-loop settings (README.md records them).
const (
	serveZipfS        = 1.2  // Zipf exponent over the hot shapes
	serveLatencyShare = 0.7  // of the window at the fixed rate; the rest is the capacity phase
	serveMaxLateMS    = 20.0 // gen_late_ms p99 above this flags the run invalid
	serveHeavyEvery   = 10   // every tenth request is a large report
	serveHeavyDays    = 400  // a large report's visitDate range: about 3.4% of the rows
)

// shape is one hot parameterised query of a tenant, with its reference.
type shape struct {
	tenant string
	ann    string
	ref    []string
}

// serveShapes returns the hot working set. The first cfg.ServeShape
// shapes are light: selective index scans (0.02-0.2% of the rows) on
// Bob's indexed attributes. A light shape's kind, width and projection
// follow from its index, so the Zipf-hot shapes cost the same under every
// seed; every fourth projects every column, the others 1-3 columns. The
// last cfg.ServeHeavy shapes are the large reports: all-column visitDate
// ranges of serveHeavyDays days each. Shapes are spread round-robin over
// the tenants, and the seed picks only where each range lies.
func serveShapes(cfg config) []shape {
	rng := rand.New(rand.NewSource(cfg.Seed*104729 + 3))
	out := make([]shape, cfg.ServeShape+cfg.ServeHeavy)
	for i := cfg.ServeShape; i < len(out); i++ {
		from := rng.Intn(dateDays - serveHeavyDays)
		out[i] = shape{
			tenant: fmt.Sprintf("tenant%d", i%cfg.Tenants),
			ann:    fmt.Sprintf(`@HailQuery(filter="@3 between(%s,%s)")`, fmtDate(from), fmtDate(from+serveHeavyDays)),
		}
	}
	for i := range out[:cfg.ServeShape] {
		var filter string
		step := i / 4 % 4
		switch i % 4 {
		case 0, 2:
			w := 4 + 6*step
			from := rng.Intn(dateDays - w)
			filter = fmt.Sprintf("@3 between(%s,%s)", fmtDate(from), fmtDate(from+w))
		case 1:
			w := 0.1 + 0.1*float64(step)
			from := float64(rng.Intn(int((500-w)*10))) / 10
			filter = fmt.Sprintf("@4 between(%g,%g)", from, math.Round((from+w)*10)/10)
		default:
			filter = "@1 = " + workload.NeedleIP
			if step%2 == 1 {
				w := 4000
				from := rng.Intn(dateDays - w)
				filter += fmt.Sprintf(" and @3 between(%s,%s)", fmtDate(from), fmtDate(from+w))
			}
		}
		proj := ""
		if i%4 != 2 {
			cols := make([]string, 1+i%3)
			for j := range cols {
				cols[j] = fmt.Sprintf("@%d", (i+4*j)%9+1)
			}
			proj = ", projection={" + strings.Join(cols, ",") + "}"
		}
		out[i] = shape{
			tenant: fmt.Sprintf("tenant%d", i%cfg.Tenants),
			ann:    `@HailQuery(filter="` + filter + `"` + proj + ")",
		}
	}
	return out
}

// serveRequest is one serve request: a shape and the split knobs.
type serveRequest struct {
	shape     int
	splitting bool
	packScans bool
}

func (r serveRequest) wire(shapes []shape, trace bool) server.QueryRequest {
	s := shapes[r.shape]
	return server.QueryRequest{Tenant: s.tenant, File: hailFile, Query: s.ann,
		Splitting: r.splitting, PackScans: r.packScans, Trace: trace}
}

// serveRequests draws n requests over light shapes followed by heavy
// large reports. Unless heavy is 0, every serveHeavyEvery-th request is a
// large report, picked uniformly; the others pick a light shape
// Zipf-skewed. Knobs are uniform.
func serveRequests(seed int64, light, heavy, n int) []serveRequest {
	rng := rand.New(rand.NewSource(seed*15485863 + 11))
	z := rand.NewZipf(rng, serveZipfS, 1, uint64(light-1))
	out := make([]serveRequest, n)
	for i := range out {
		k := rng.Intn(4)
		s := int(z.Uint64())
		if heavy > 0 && i%serveHeavyEvery == serveHeavyEvery-1 {
			s = light + rng.Intn(heavy)
		}
		out[i] = serveRequest{shape: s, splitting: k&1 == 1, packScans: k&2 == 2}
	}
	return out
}

// serveEnv is a query deployment plus the hot shapes and their references.
type serveEnv struct {
	*queryEnv
	shapes []shape
}

func setupServe(cfg config) (*serveEnv, error) {
	qe, lines, err := setupQueryEnv(cfg)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{queryEnv: qe, shapes: serveShapes(cfg)}
	or, err := newOracle(lines)
	if err != nil {
		qe.close()
		return nil, err
	}
	for i := range e.shapes {
		if e.shapes[i].ref, err = or.answer(e.shapes[i].ann); err != nil {
			qe.close()
			return nil, err
		}
	}
	// Warm every shape under every knob combination.
	for i := range e.shapes {
		for k := 0; k < 4; k++ {
			r := serveRequest{shape: i, splitting: k&1 == 1, packScans: k&2 == 2}
			req := r.wire(e.shapes, false)
			resp, err := qe.h.post(&req)
			if err == nil {
				err = checkRows(resp, e.shapes[i].ref, 0)
			}
			if err != nil {
				qe.close()
				return nil, fmt.Errorf("warming %s: %w", e.shapes[i].ann, err)
			}
		}
	}
	return e, nil
}

// openLoop sends reqs at a fixed rate from cfg.Clients goroutines and
// checks each answer as it arrives. Each request is timed from its due
// time; late[i] is how far behind schedule it was sent. Unless keepRows,
// answers keep only counts, so the generator holds no result rows.
func openLoop(cfg config, h *haild, shapes []shape, reqs []serveRequest, trace, keepRows bool) (answers []served, late []float64, errs []error) {
	n := len(reqs)
	answers = make([]served, n)
	late = make([]float64, n)
	errs = make([]error, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / cfg.ServeRate * float64(time.Second)))
				// Timer wake-ups on the build box run about a millisecond
				// late; the last stretch spins so the request leaves on time.
				time.Sleep(time.Until(due) - 1500*time.Microsecond)
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				sent := time.Now()
				req := reqs[i].wire(shapes, trace)
				resp, err := h.post(&req)
				late[i] = ms(sent.Sub(due))
				answers[i] = served{req, resp, ms(time.Since(due)), late[i]}
				if err == nil {
					err = checkRows(resp, shapes[reqs[i].shape].ref, 0)
					if !keepRows {
						resp.Rows = nil
					}
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	return answers, late, errs
}

// capacitySlice is the closed loop's measuring slice: ops_per_s is the
// median of the slices' completion rates, so a stall of the shared host
// moves at most a few slices.
const capacitySlice = 250 * time.Millisecond

// closedLoop sends requests back to back from one client until the
// deadline. It returns how many completed and the median completion rate
// over capacitySlice slices, per second. One client keeps the rate a
// property of the request path rather than of how much of the second
// vCPU the shared host lends. The caller sends only light shapes: a
// large report's cost is mostly JSON encoding and decoding of its rows,
// which swings with the shared host's CPU speed from run to run.
func closedLoop(cfg config, e *serveEnv, reqs []serveRequest, seconds float64, o *outcome) (int, float64) {
	done := 0
	slices := make([]float64, int(seconds*float64(time.Second)/float64(capacitySlice)))
	start := time.Now()
	for i := 0; ; i++ {
		k := int(time.Since(start) / capacitySlice)
		if k >= len(slices) {
			break
		}
		r := reqs[i%len(reqs)]
		req := r.wire(e.shapes, false)
		resp, err := e.h.post(&req)
		if err == nil {
			err = checkRows(resp, e.shapes[r.shape].ref, 0)
		}
		o.attempted++
		if err != nil {
			o.fail("%s: %v", req.Query, err)
			continue
		}
		if k = int(time.Since(start) / capacitySlice); k < len(slices) {
			done++
			slices[k]++
		}
	}
	return done, median(slices) / capacitySlice.Seconds()
}

// reportLatencies returns the latencies of the answered large reports.
func reportLatencies(cfg config, reqs []serveRequest, answers []served, errs []error) []float64 {
	var out []float64
	for i, a := range answers {
		if errs[i] == nil && reqs[i].shape >= cfg.ServeShape {
			out = append(out, a.latency)
		}
	}
	return out
}

// collectOpenLoop folds an open-loop phase into the outcome and returns
// the successful answers.
func collectOpenLoop(o *outcome, answers []served, errs []error) []served {
	var ok []served
	for i, err := range errs {
		o.attempted++
		if err != nil {
			o.fail("%s: %v", answers[i].req.Query, err)
			continue
		}
		ok = append(ok, answers[i])
	}
	return ok
}

func runServe(cfg config) (*outcome, error) {
	o := &outcome{}
	reps := cfg.SetupReps
	if cfg.Trace {
		reps = 1
	}
	env, setupS, err := setupMedian(reps, func() (*serveEnv, error) { return setupServe(cfg) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	if cfg.Trace {
		return o, traceQueryWorkload(cfg, env.queryEnv, o, servePhase{cfg: cfg, shapes: env.shapes})
	}

	latSeconds := cfg.Seconds * serveLatencyShare
	reqs := serveRequests(cfg.Seed, cfg.ServeShape, cfg.ServeHeavy, int(cfg.ServeRate*latSeconds))
	answers, late, errs := openLoop(cfg, env.h, env.shapes, reqs, false, false)
	ok := collectOpenLoop(o, answers, errs)
	capReqs := serveRequests(cfg.Seed+1, cfg.ServeShape, 0, 4096)
	done, capacity := closedLoop(cfg, env, capReqs, cfg.Seconds-latSeconds, o)
	heap := liveHeapMB()

	lats := latencies(ok)
	reports := reportLatencies(cfg, reqs, answers, errs)
	lateP99 := quantile(late, 0.99)
	st := env.h.srv.CacheStats()
	o.note("serve: %d requests at %.0f/s from %d clients (open loop), then %d in %.2fs closed loop from 1 client", len(reqs), cfg.ServeRate, cfg.Clients, done, cfg.Seconds-latSeconds)
	o.note("gen_late_ms p99 = %.3f (limit %.0f)", lateP99, serveMaxLateMS)
	o.note("latency deciles (ms): %s; p95 %.2f p99 %.2f max %.2f", deciles(lats), quantile(lats, 0.95), quantile(lats, 0.99), quantile(lats, 1))
	o.note("large reports (%d): median %.2f ms, p90 %.2f ms", len(reports), median(reports), quantile(reports, 0.9))
	o.note("cache: %d hits, %d misses, %d split hits, %d bytes resident", st.Hits, st.Misses, st.SplitHits, st.Bytes)
	noteMix(o, ok)
	if lateP99 > serveMaxLateMS {
		o.invalid = fmt.Sprintf("generator fell behind: gen_late_ms p99 %.1f > %.0f", lateP99, serveMaxLateMS)
	}
	o.add("setup_s", setupS, "s")
	o.add("p50_ms", median(lats), "ms")
	o.add("tail_ms", median(reports), "ms")
	o.add("ops_per_s", capacity, "1/s")
	o.add("live_heap_mb", heap, "MB")
	return o, nil
}
