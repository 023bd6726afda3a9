package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/index"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/pax"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/workload"
)

// budgetTolerance is how far the layer budget may miss the traced
// end-to-end mean, as a share of it, before the run fails.
const budgetTolerance = 0.25

// queryPhase is a query workload as the traced run drives it.
type queryPhase interface {
	// warmRequests bring a fresh cache to the state the timed window
	// starts from.
	warmRequests() []server.QueryRequest
	// run sends the workload's request stream from its start, for seconds
	// or, when n > 0, exactly n requests.
	run(h *haild, trace bool, seconds float64, n int, o *outcome) []served
	// verify checks answers against the serial reference, where run did
	// not already.
	verify(env *queryEnv, answers []served, o *outcome) error
}

type scanPhase struct{ cfg config }

func (p scanPhase) warmRequests() []server.QueryRequest {
	var out []server.QueryRequest
	for _, ann := range scanPrefill {
		out = append(out, server.QueryRequest{File: hailFile, Query: ann, Limit: 1})
	}
	return out
}

func (p scanPhase) run(h *haild, trace bool, seconds float64, n int, o *outcome) []served {
	answers, _ := runScanWindow(p.cfg, h, newScanGen(p.cfg.Seed), seconds, n, trace, o)
	return answers
}

func (p scanPhase) verify(env *queryEnv, answers []served, o *outcome) error {
	return verifyScan(p.cfg, answers, o)
}

type servePhase struct {
	cfg    config
	shapes []shape
}

func (p servePhase) warmRequests() []server.QueryRequest {
	var out []server.QueryRequest
	for i := range p.shapes {
		for k := 0; k < 4; k++ {
			out = append(out, serveRequest{shape: i, splitting: k&1 == 1, packScans: k&2 == 2}.wire(p.shapes, false))
		}
	}
	return out
}

func (p servePhase) run(h *haild, trace bool, seconds float64, n int, o *outcome) []served {
	if n <= 0 {
		n = int(p.cfg.ServeRate * seconds)
	}
	answers, _, errs := openLoop(p.cfg, h, p.shapes, serveRequests(p.cfg.Seed, p.cfg.ServeShape, p.cfg.ServeHeavy, n), trace, true)
	return collectOpenLoop(o, answers, errs)
}

func (p servePhase) verify(*queryEnv, []served, *outcome) error { return nil } // openLoop checks every answer

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceQueryWorkload is the traced run of scan and serve: the query-side
// layers, then the upload side from one composed upload of the same text.
func traceQueryWorkload(cfg config, env *queryEnv, o *outcome, p queryPhase) error {
	pct, err := traceQueries(cfg, env, o, p)
	if err != nil {
		return err
	}
	o.add("obs.trace_overhead_pct", pct, "%")
	ut, err := probeUpload(cfg, genLines(cfg.Rows, cfg.Seed), env.sum)
	if err != nil {
		o.note("upload layers missing: %v", err)
		return nil
	}
	addUploadLayers(o, ut, 1)
	return nil
}

// traceQueries replays the untraced request stream on a fresh haild with
// tracing on, checks the outputs and deterministic counters agree, reads
// each request's trace, re-runs the traced queries in-process under
// timing decorators and a per-block replay, and reports the query-side
// per-layer metrics and the layer budget. It returns the traced stream's
// p50 overhead over the untraced one, in percent.
func traceQueries(cfg config, env *queryEnv, o *outcome, p queryPhase) (float64, error) {
	untraced := p.run(env.h, false, cfg.Seconds/2, 0, o)
	if err := p.verify(env, untraced, o); err != nil {
		return 0, err
	}
	if len(untraced) == 0 {
		return 0, fmt.Errorf("traced run: no request succeeded")
	}

	// A fresh server in the same starting state, then the same stream
	// with tracing on.
	if err := env.h.close(); err != nil {
		return 0, err
	}
	h, err := startHaild(cfg, env.dir, len(untraced)+len(p.warmRequests()))
	if err != nil {
		return 0, err
	}
	env.h = h
	for _, req := range p.warmRequests() {
		if _, err := h.post(&req); err != nil {
			return 0, fmt.Errorf("warming: %w", err)
		}
	}
	before, err := snapshot(h)
	if err != nil {
		return 0, err
	}
	cacheBefore := h.srv.CacheStats()
	traced := p.run(h, true, 0, len(untraced), o)
	cacheAfter := h.srv.CacheStats()
	after, err := snapshot(h)
	if err != nil {
		return 0, err
	}
	compareRuns(untraced, traced, o)

	// Spans and probe counts of every traced request.
	var spans spanTotals
	for _, a := range traced {
		var ct chromeTrace
		if err := h.getJSON("/trace?id="+strconv.Itoa(a.resp.TraceID), &ct); err != nil {
			return 0, fmt.Errorf("reading trace %d: %w", a.resp.TraceID, err)
		}
		spans.add(ct)
	}

	n := min(len(traced), cfg.ProbeCap)
	probe, warm, err := probeQueries(cfg, env, p, traced[:n], o)
	if err != nil {
		return 0, err
	}
	// Per-row and per-block layer costs come from the stream's own block
	// reads, or from the warm-up's when the stream read none.
	blk := probe
	if probe.replayBlocks == 0 && probe.replayBad == 0 {
		blk = warm
		o.note("the traced stream read no blocks; block-level layers are measured on the warm-up requests")
	}
	add := func(name string, v float64, unit string) {
		if reason, ok := blk.missing[name]; ok {
			o.note("layer %s missing: %s", name, reason)
			return
		}
		o.add(name, v, unit)
	}

	latU, latT := latencies(untraced), latencies(traced)
	var overhead, late, respBytes, bytesRead, nnOps, tasks []float64
	for _, a := range traced {
		overhead = append(overhead, a.latency-a.late-a.resp.LatencyMS)
		late = append(late, a.late)
		bytesRead = append(bytesRead, float64(a.resp.BytesRead))
		nnOps = append(nnOps, float64(a.resp.NameNodeOps))
		tasks = append(tasks, float64(a.resp.Tasks))
		respBytes = append(respBytes, float64(payloadBytes(a.resp)))
	}
	q := float64(len(traced))
	add("server.overhead_ms", mean(overhead), "ms")
	add("server.queue_wait_ms", histMeanDelta(before, after, "server.queue_wait_seconds"), "ms")
	add("server.response_bytes", mean(respBytes), "bytes")
	add("query.parse_us", probe.perQuery(probe.parse)*1000, "us")
	add("query.kernel_ns_per_row", ratio(float64(blk.kernel), float64(blk.replayRows)), "ns")
	add("query.selectivity", ratio(float64(blk.stats.RowsSelected), float64(blk.stats.RowsScanned)), "ratio")
	add("core.plan_ms", probe.perQuery(probe.plan), "ms")
	add("core.read_ns_per_row", ratio(float64(blk.readTotal-blk.mapTime), float64(blk.stats.RowsScanned)), "ns")
	add("core.rows_examined_per_row_out", ratio(float64(blk.stats.RowsScanned), float64(blk.stats.RowsSelected)), "ratio")
	add("index.partitions_scanned_frac", ratio(float64(blk.stats.PartitionsScanned), float64(blk.partitions)), "ratio")
	add("index.index_scan_share", ratio(float64(blk.stats.IndexScans), float64(blk.stats.IndexScans+blk.stats.FullScans)), "ratio")
	add("pax.decode_ns_per_value", ratio(float64(blk.decode), float64(blk.decoded)), "ns")
	add("pax.project_ns_per_value", ratio(float64(blk.project), float64(blk.projected)), "ns")
	add("hdfs.read_block_us", ratio(float64(blk.readBlock)/1e3, float64(blk.replayBlocks)), "us")
	add("hdfs.bytes_read_per_query", mean(bytesRead), "bytes")
	add("hdfs.nn_ops_per_query", mean(nnOps), "count")
	add("mapred.tasks_per_query", mean(tasks), "count")
	add("mapred.task_wait_ms", ratio(ms(spans.wait), float64(spans.waits)), "ms")
	add("mapred.assemble_ms", ratio(ms(spans.assemble), q), "ms")
	add("mapred.map_ns_per_row", ratio(float64(blk.mapTime), float64(blk.stats.RecordsDelivered)), "ns")
	add("mapred.allocs_per_row", probe.allocsPerRow, "count")
	add("qcache.hit_rate", ratio(float64(spans.counts["qcache.block_hit"]), float64(spans.counts["qcache.block_hit"]+spans.counts["qcache.block_miss"])), "ratio")
	add("qcache.split_hit_rate", ratio(float64(spans.counts["qcache.split_hit"]), float64(spans.counts["qcache.split_hit"]+spans.counts["qcache.split_miss"])), "ratio")
	add("qcache.get_us", ratio(float64(probe.getTime)/1e3, float64(probe.gets)), "us")
	add("qcache.put_us", ratio(float64(blk.putTime)/1e3, float64(blk.puts)), "us")
	add("qcache.evictions_per_query", float64(cacheAfter.Evictions-cacheBefore.Evictions)/q, "count")

	// The layer budget over the probed requests: HTTP overhead from the
	// traced requests, the engine's time split by the in-process probe,
	// and whatever the two leave unexplained.
	var e2e []float64
	for _, a := range traced[:n] {
		e2e = append(e2e, a.latency)
	}
	rows := append([]budgetRow{{"gen.late", mean(late[:n])}}, probe.budget(mean(overhead[:n]))...)
	unaccounted := mean(e2e)
	for _, r := range rows {
		unaccounted -= r.ms
	}
	add("budget.unaccounted_ms", unaccounted, "ms")
	printBudget(o, cfg.Workload, rows, unaccounted, mean(e2e), median(e2e))
	if _, missing := blk.missing["budget.unaccounted_ms"]; !missing && math.Abs(unaccounted) > budgetTolerance*mean(e2e) {
		o.unreconciled = fmt.Sprintf("layer budget: unaccounted %.3f ms exceeds %.0f%% of the traced mean %.3f ms",
			unaccounted, budgetTolerance*100, mean(e2e))
	}
	o.note("traced run: %d requests untraced then traced; %d re-run in-process; %d blocks replayed (%d failed the replay check)",
		len(untraced), n, probe.replayBlocks, probe.replayBad)
	return (median(latT)/median(latU) - 1) * 100, nil
}

// compareRuns requires the traced stream to return byte-identical rows
// and identical deterministic counters to the untraced one.
func compareRuns(untraced, traced []served, o *outcome) {
	if len(traced) != len(untraced) {
		o.fail("traced run answered %d requests, untraced %d", len(traced), len(untraced))
		return
	}
	for i := range traced {
		a, b := untraced[i], traced[i]
		ca, cb := countersOf(a), countersOf(b)
		if ca != cb || !slices.Equal(a.resp.Rows, b.resp.Rows) {
			o.fail("request %d (%s): traced answer differs from untraced (%+v vs %+v)", i, a.req.Query, cb, ca)
		}
	}
}

func snapshot(h *haild) (map[string]obs.Metric, error) {
	var ms []obs.Metric
	if err := h.getJSON("/metrics", &ms); err != nil {
		return nil, err
	}
	out := make(map[string]obs.Metric, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out, nil
}

// histMeanDelta is the mean of a histogram's observations between two
// snapshots, as sum ÷ count: its quantiles are bucket edges.
func histMeanDelta(before, after map[string]obs.Metric, name string) float64 {
	a, b := after[name], before[name]
	n := a.Count - b.Count
	if n <= 0 {
		return 0
	}
	return (a.MeanMs*float64(a.Count) - b.MeanMs*float64(b.Count)) / float64(n)
}

// chromeTrace is the subset of /trace?id=N the benchmark reads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Dur  float64        `json:"dur"` // microseconds
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// spanTotals sums the traced requests' spans and probe counts.
type spanTotals struct {
	assemble, wait time.Duration
	waits          int
	counts         map[string]int64
}

func (s *spanTotals) add(ct chromeTrace) {
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	for _, ev := range ct.TraceEvents {
		d := time.Duration(ev.Dur * 1e3)
		switch {
		case ev.Ph == "C":
			if v, ok := ev.Args["value"].(float64); ok {
				s.counts[ev.Name] += int64(v)
			}
		case ev.Cat == "phase" && ev.Name == "assemble":
			s.assemble += d
		case ev.Cat == "task" && ev.Name == "wait":
			s.wait += d
			s.waits++
		}
	}
}

// budgetRow is one layer's mean self time per request on the critical
// path. With Parallelism 1 a query's tasks run one after another, so the
// critical path is the whole execution.
type budgetRow struct {
	name string
	ms   float64
}

func printBudget(o *outcome, workload string, rows []budgetRow, unaccounted, e2eMean, e2eP50 float64) {
	o.note("layer budget (%s), mean ms per request:", workload)
	for _, r := range rows {
		o.note("  %-26s %9.4f", r.name, r.ms)
	}
	o.note("  %-26s %9.4f", "budget.unaccounted_ms", unaccounted)
	o.note("  %-26s %9.4f  (p50 %.4f; tolerance %.0f%%)", "traced e2e mean", e2eMean, e2eP50, budgetTolerance*100)
}

// probeResult is what the in-process probe measured, summed over the
// probed queries.
type probeResult struct {
	queries int
	missing map[string]string

	parse, plan, run, schedule, assemble time.Duration
	readTotal, mapTime                   time.Duration
	getTime, putTime                     time.Duration
	gets, puts                           int
	stats                                mapred.TaskStats // of the blocks read (cache misses)
	partitions                           int64            // partitions of the blocks read
	allocsPerRow                         float64

	// per-block replay
	replayBlocks, replayBad                             int
	readBlock, open, indexTime, decode, kernel, project time.Duration
	decoded, projected, replayRows                      int64
}

func (p *probeResult) perQuery(d time.Duration) float64 { return ratio(ms(d), float64(p.queries)) }

// budget splits the mean in-process execution into layer self times.
// The reader's self time is divided by the replay's shares; what the
// replay does not cover stays with core.reader_other.
func (p *probeResult) budget(overheadMS float64) []budgetRow {
	readerSelf := p.readTotal - p.mapTime
	replay := p.readBlock + p.open + p.indexTime + p.decode + p.kernel + p.project
	scale := 1.0
	if p.replayBad > 0 || replay == 0 {
		scale = 0
	} else if replay > readerSelf {
		scale = float64(readerSelf) / float64(replay)
	}
	part := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	covered := part(replay)
	perBlockWork := p.getTime + p.putTime + p.readTotal
	dispatch := p.run - p.plan - p.schedule - p.assemble - perBlockWork
	rows := []budgetRow{
		{"server.overhead", overheadMS},
		{"core.plan", p.perQuery(p.plan)},
		{"mapred.schedule", p.perQuery(p.schedule)},
		{"qcache.get", p.perQuery(p.getTime)},
		{"hdfs.read_block", p.perQuery(part(p.readBlock))},
		{"pax.open", p.perQuery(part(p.open))},
		{"index.lookup", p.perQuery(part(p.indexTime))},
		{"pax.decode", p.perQuery(part(p.decode))},
		{"query.kernel", p.perQuery(part(p.kernel))},
		{"pax.project", p.perQuery(part(p.project))},
		{"core.reader_other", p.perQuery(readerSelf - covered)},
		{"mapred.map", p.perQuery(p.mapTime)},
		{"qcache.put", p.perQuery(p.putTime)},
		{"mapred.assemble", p.perQuery(p.assemble)},
		{"mapred.dispatch", p.perQuery(dispatch)},
	}
	return rows
}

// openedBlock is one block the engine opened through the probe.
type openedBlock struct {
	block  hdfs.BlockID
	pin    hdfs.NodeID
	pinned bool
	node   hdfs.NodeID
	stats  mapred.TaskStats
	read   bool
}

// probeInput is the job's input format with its split phase and readers
// timed. Every other method, and every interface the engine asserts, is
// forwarded by embedding.
type probeInput struct {
	*core.InputFormat
	p      *probeResult
	opened []*openedBlock
}

func (f *probeInput) Splits(file string) ([]mapred.Split, error) {
	start := time.Now()
	s, err := f.InputFormat.Splits(file)
	f.p.plan += time.Since(start)
	return s, err
}

func (f *probeInput) SplitsWithStats(file string) ([]mapred.Split, mapred.TaskStats, error) {
	start := time.Now()
	s, st, err := f.InputFormat.SplitsWithStats(file)
	f.p.plan += time.Since(start)
	return s, st, err
}

func (f *probeInput) OpenBlock(split mapred.Split, b hdfs.BlockID, node hdfs.NodeID) (mapred.RecordReader, error) {
	rr, err := f.InputFormat.OpenBlock(split, b, node)
	if err != nil {
		return nil, err
	}
	pin, pinned := split.Replica[b]
	ob := &openedBlock{block: b, pin: pin, pinned: pinned, node: node}
	f.opened = append(f.opened, ob)
	return &probeReader{inner: rr, p: f.p, blocks: []*openedBlock{ob}}, nil
}

func (f *probeInput) Open(split mapred.Split, node hdfs.NodeID) (mapred.RecordReader, error) {
	rr, err := f.InputFormat.Open(split, node)
	if err != nil {
		return nil, err
	}
	return &probeReader{inner: rr, p: f.p}, nil
}

// probeReader times a record reader and the map callbacks inside it.
type probeReader struct {
	inner  mapred.RecordReader
	p      *probeResult
	blocks []*openedBlock // the one block of a per-block reader
}

func (r *probeReader) Read(fn func(mapred.Record)) (mapred.TaskStats, error) {
	var inMap time.Duration
	start := time.Now()
	st, err := r.inner.Read(func(rec mapred.Record) {
		t := time.Now()
		fn(rec)
		inMap += time.Since(t)
	})
	r.p.readTotal += time.Since(start)
	r.p.mapTime += inMap
	r.p.stats.Add(st)
	if len(r.blocks) == 1 {
		r.blocks[0].stats, r.blocks[0].read = st, true
	}
	return st, err
}

// probeCache times the result cache's block-level probes and admissions.
// The split-level tier, where the cache has one, is forwarded by
// embedding and counted from the job's trace.
type probeCache struct {
	*qcache.Cache
	p *probeResult
}

func (c *probeCache) Get(k mapred.CacheKey) ([]mapred.KV, mapred.TaskStats, bool) {
	start := time.Now()
	kvs, st, ok := c.Cache.Get(k)
	c.p.getTime += time.Since(start)
	c.p.gets++
	return kvs, st, ok
}

func (c *probeCache) Put(k mapred.CacheKey, kvs []mapred.KV, st mapred.TaskStats) {
	start := time.Now()
	c.Cache.Put(k, kvs, st)
	c.p.putTime += time.Since(start)
	c.p.puts++
}

// probeEngine is the in-process twin of haild's query path: a private
// cluster loaded from the same directory, a private result cache and a
// private metrics registry, wired as server.New wires them.
type probeEngine struct {
	cfg     config
	cluster *hdfs.Cluster
	cache   *qcache.Cache
	reg     *obs.Registry
}

func newProbeEngine(cfg config, dir string) (*probeEngine, error) {
	cluster, err := hdfs.Load(dir)
	if err != nil {
		return nil, err
	}
	cache := qcache.New(0)
	reg := obs.NewRegistry()
	cluster.NameNode().SetReplicaChangeHook(cache.InvalidateBlock)
	cluster.NameNode().BindObs(reg)
	cache.BindObs(reg)
	return &probeEngine{cfg: cfg, cluster: cluster, cache: cache, reg: reg}, nil
}

// run executes one request the way haild's runQuery does; with a
// probeResult the input format, readers and cache are timed.
func (e *probeEngine) run(req server.QueryRequest, p *probeResult, tr *obs.Trace) (*mapred.JobResult, *probeInput, error) {
	start := time.Now()
	q, err := query.ParseAnnotation(workload.UserVisitsSchema(), req.Query)
	if err != nil {
		return nil, nil, err
	}
	input := &core.InputFormat{Cluster: e.cluster, Query: q, Splitting: req.Splitting, PackScans: req.PackScans}
	engine := &mapred.Engine{Cluster: e.cluster, Parallelism: e.cfg.Parallelism, Cache: e.cache, Obs: e.reg}
	if req.PackScans {
		if sig, ok := input.QuerySignature(); ok {
			nn := e.cluster.NameNode()
			input.CachedReplica = func(b hdfs.BlockID) (hdfs.NodeID, bool) {
				return e.cache.CachedReplica(hailFile, b, nn.Generation(b), sig, workload.PassthroughMapSig)
			}
		}
	}
	job := &mapred.Job{Name: "probe", File: hailFile, Input: input,
		Map: workload.PassthroughMap, MapSig: workload.PassthroughMapSig, Trace: tr}
	var pin *probeInput
	if p != nil {
		p.parse += time.Since(start)
		pin = &probeInput{InputFormat: input, p: p}
		job.Input = pin
		engine.Cache = &probeCache{Cache: e.cache, p: p}
	}
	runStart := time.Now()
	res, err := engine.Run(job)
	if p != nil {
		p.run += time.Since(runStart)
	}
	return res, pin, err
}

// warm runs the phase's warm-up requests through the probe engine.
func (e *probeEngine) warm(reqs []server.QueryRequest) error {
	for _, req := range reqs {
		if _, _, err := e.run(req, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// probeQueries re-runs traced requests in-process: first untimed on a
// plain engine to count allocations, then through the timing decorators,
// replaying every block read. Each probe answer must match the served
// one. The warm-up requests also run through the decorators, into a
// second result: when the stream itself reads no blocks (serve's hot set
// is cached), the block-level layers are measured on the warm-up.
func probeQueries(cfg config, env *queryEnv, p queryPhase, traced []served, o *outcome) (res, warm *probeResult, err error) {
	res = &probeResult{queries: len(traced), missing: map[string]string{}}
	warm = &probeResult{queries: len(p.warmRequests()), missing: map[string]string{}}

	plain, err := newProbeEngine(cfg, env.dir)
	if err != nil {
		return nil, nil, err
	}
	if err := plain.warm(p.warmRequests()); err != nil {
		return nil, nil, err
	}
	var rowsOut int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, a := range traced {
		jr, _, err := plain.run(a.req, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		rowsOut += int64(len(jr.Output))
	}
	runtime.ReadMemStats(&m1)
	res.allocsPerRow = ratio(float64(m1.Mallocs-m0.Mallocs), float64(rowsOut))

	pe, err := newProbeEngine(cfg, env.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, req := range p.warmRequests() {
		if err := pe.probe(req, nil, warm, o); err != nil {
			return nil, nil, err
		}
	}
	for _, a := range traced {
		if err := pe.probe(a.req, a.resp, res, o); err != nil {
			return nil, nil, err
		}
	}
	return res, warm, nil
}

// probe runs one request through the decorators into res and replays
// every block it read; with a served response, the probe's answer must
// match it.
func (e *probeEngine) probe(req server.QueryRequest, resp *server.QueryResponse, res *probeResult, o *outcome) error {
	tr := obs.NewTrace("probe")
	jr, pin, err := e.run(req, res, tr)
	if err != nil {
		return err
	}
	if resp != nil {
		rows := make([]string, len(jr.Output))
		for i, kv := range jr.Output {
			rows[i] = kv.Key
		}
		sort.Strings(rows)
		if err := checkRows(resp, rows, req.Limit); err != nil {
			o.fail("in-process probe of %s: %v", req.Query, err)
		}
	}
	for _, s := range tr.SpanInfos() {
		switch s.Name {
		case "schedule":
			res.schedule += s.Dur()
		case "assemble":
			res.assemble += s.Dur()
		}
	}
	q, err := query.ParseAnnotation(workload.UserVisitsSchema(), req.Query)
	if err != nil {
		return err
	}
	for _, ob := range pin.opened {
		if !ob.read {
			continue
		}
		if err := res.replayBlock(e.cluster, q, ob); err != nil {
			res.replayBad++
			if len(res.missing) == 0 {
				o.note("block replay check failed: %v", err)
			}
			for _, name := range []string{"hdfs.read_block_us", "pax.decode_ns_per_value",
				"pax.project_ns_per_value", "query.kernel_ns_per_row", "budget.unaccounted_ms"} {
				res.missing[name] = err.Error()
			}
		}
	}
	return nil
}

// replayBlock re-executes one block's read outside the reader, step by
// step, timing each layer: ReadBlockFrom, ParseFrame + pax.NewReader,
// index.Unmarshal + PartitionRange, then per batch ColumnCursor.Next on
// the filter columns, Query.MatchesBatch, and the projection columns'
// Next/NextSelected. It counts only when its rows and bytes equal the
// reader's TaskStats for the block.
func (p *probeResult) replayBlock(cluster *hdfs.Cluster, q *query.Query, ob *openedBlock) error {
	t0 := time.Now()
	var data []byte
	var err error
	if ob.pinned {
		data, err = cluster.ReadBlockFrom(ob.pin, ob.block)
	}
	if !ob.pinned || err != nil {
		data, _, err = cluster.ReadBlockAny(ob.block, ob.node)
	}
	if err != nil {
		return err
	}
	t1 := time.Now()
	paxData, ixData, err := core.ParseFrame(data)
	if err != nil {
		return err
	}
	rd, err := pax.NewReader(paxData)
	if err != nil {
		return err
	}
	t2 := time.Now()
	from, to := 0, rd.NumRows()
	if ixData != nil {
		for _, pr := range q.Filter {
			if pr.Column != rd.SortColumn() {
				continue
			}
			ix, err := index.Unmarshal(ixData)
			if err != nil {
				return err
			}
			f, t, ok := ix.PartitionRange(pr.Lo, pr.Hi)
			if !ok {
				f, t = 0, 0
			}
			from, to = f, t
			break
		}
	}
	t3 := time.Now()
	var decode, kernel, project time.Duration
	var decoded, projected, scanned, selected int64
	if to > from {
		proj := q.ProjectionOrAll(rd.Schema())
		filterCols, cols := scanColumns(q, proj)
		isFilter := map[int]bool{}
		for _, c := range filterCols {
			isFilter[c] = true
		}
		cursors := map[int]*pax.ColumnCursor{}
		vecs := map[int]*schema.Vector{}
		c0 := time.Now()
		for _, c := range cols {
			cur, err := rd.NewColumnCursor(c, from, to)
			if err != nil {
				return err
			}
			cursors[c] = cur
			vecs[c] = schema.NewVector(rd.Schema().Field(c).Type)
		}
		decode += time.Since(c0)
		var sel query.Selection
		for remaining := to - from; remaining > 0; {
			n := min(pax.PartitionSize, remaining)
			remaining -= n
			s := time.Now()
			for _, c := range filterCols {
				if _, err := cursors[c].Next(n, vecs[c]); err != nil {
					return err
				}
			}
			k := time.Now()
			sel = q.MatchesBatch(func(c int) *schema.Vector { return vecs[c] }, query.MakeSelection(sel, n))
			j := time.Now()
			decode += k.Sub(s)
			kernel += j.Sub(k)
			decoded += int64(n * len(filterCols))
			scanned += int64(n)
			selected += int64(len(sel))
			partial := len(sel) > 0 && len(sel) < n
			for _, c := range cols {
				if isFilter[c] {
					continue
				}
				var err error
				switch {
				case len(sel) == 0:
					_, err = cursors[c].Next(n, nil)
				case partial:
					_, err = cursors[c].NextSelected(n, sel, vecs[c])
					projected += int64(len(sel))
				default:
					_, err = cursors[c].Next(n, vecs[c])
					projected += int64(n)
				}
				if err != nil {
					return err
				}
			}
			if partial {
				for _, c := range filterCols {
					if slices.Contains(proj, c) {
						vecs[c].Gather(sel)
					}
				}
			}
			project += time.Since(j)
		}
	}
	st := ob.stats
	if scanned != st.RowsScanned || selected != st.RowsSelected || rd.Stats().BytesRead != st.BytesRead {
		return fmt.Errorf("block %d: replay scanned %d rows, selected %d, read %d bytes; reader reported %d, %d, %d",
			ob.block, scanned, selected, rd.Stats().BytesRead, st.RowsScanned, st.RowsSelected, st.BytesRead)
	}
	p.replayBlocks++
	p.readBlock += t1.Sub(t0)
	p.open += t2.Sub(t1)
	p.indexTime += t3.Sub(t2)
	p.decode += decode
	p.kernel += kernel
	p.project += project
	p.decoded += decoded
	p.projected += projected
	p.replayRows += scanned
	p.partitions += int64((rd.NumRows() + pax.PartitionSize - 1) / pax.PartitionSize)
	return nil
}

// scanColumns returns a query's distinct filter columns and the distinct
// columns it touches (filters and projection), both ascending.
func scanColumns(q *query.Query, proj []int) (filterCols, cols []int) {
	seen := map[int]bool{}
	for _, pr := range q.Filter {
		if !seen[pr.Column] {
			seen[pr.Column] = true
			filterCols = append(filterCols, pr.Column)
		}
	}
	sort.Ints(filterCols)
	for _, c := range proj {
		seen[c] = true
	}
	for c := range seen {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return filterCols, cols
}

// uploadTimes is the composed upload's per-layer time.
type uploadTimes struct {
	parse, marshal, transform, pipeline, save time.Duration
	lines, blocks, replicas                   int
}

// probeUpload runs the upload step by step — ParseLine and AppendRow,
// Marshal, WriteBlock with a timed BuildIndexedReplica transform, then
// Save — and counts only when its blocks and stored and index bytes equal
// Client.Upload's summary.
func probeUpload(cfg config, lines []string, want core.UploadSummary) (uploadTimes, error) {
	var ut uploadTimes
	dir, err := runDir(cfg, "probe")
	if err != nil {
		return ut, err
	}
	defer os.RemoveAll(dir)
	cluster, err := hdfs.NewCluster(cfg.Nodes)
	if err != nil {
		return ut, err
	}
	lay := layout(cfg.BlockSize)
	parser := &schema.Parser{Schema: lay.Schema, Sep: ','}
	var got core.UploadSummary
	block := pax.NewBlock(lay.Schema)
	blockText := 0
	var flushTime time.Duration
	flush := func() error {
		if block.NumRows() == 0 && block.NumBad() == 0 {
			return nil
		}
		f0 := time.Now()
		paxData, err := block.Marshal()
		if err != nil {
			return err
		}
		f1 := time.Now()
		var inTransform time.Duration
		transform := func(pos int, _ hdfs.NodeID, data []byte) ([]byte, hdfs.ReplicaInfo, error) {
			t := time.Now()
			out, info, err := core.BuildIndexedReplica(data, lay.SortColumns[pos])
			inTransform += time.Since(t)
			ut.replicas++
			return out, info, err
		}
		id, st, err := cluster.WriteBlock(hailFile, paxData, lay.Replication(), transform)
		if err != nil {
			return err
		}
		f2 := time.Now()
		ut.marshal += f1.Sub(f0)
		ut.transform += inTransform
		ut.pipeline += f2.Sub(f1) - inTransform
		ut.blocks++
		got.Blocks++
		got.PaxBytes += int64(len(paxData))
		for pos, sz := range st.ReplicaSizes {
			got.StoredBytes += int64(sz)
			if info, ok := cluster.NameNode().ReplicaInfo(id, st.PipelineNodes[pos]); ok {
				got.IndexBytes += int64(info.IndexSize)
			}
		}
		block = pax.NewBlock(lay.Schema)
		blockText = 0
		flushTime += time.Since(f0)
		return nil
	}
	start := time.Now()
	for _, line := range lines {
		got.TextBytes += int64(len(line) + 1)
		if row, err := parser.ParseLine(line); err != nil {
			block.AppendBad(line)
		} else {
			if err := block.AppendRow(row); err != nil {
				return ut, err
			}
			got.Rows++
		}
		blockText += len(line) + 1
		if blockText >= lay.BlockSize {
			if err := flush(); err != nil {
				return ut, err
			}
		}
	}
	if err := flush(); err != nil {
		return ut, err
	}
	ut.parse = time.Since(start) - flushTime
	ut.lines = len(lines)
	s0 := time.Now()
	if err := cluster.Save(dir); err != nil {
		return ut, err
	}
	ut.save = time.Since(s0)
	if got.Blocks != want.Blocks || got.Rows != want.Rows || got.StoredBytes != want.StoredBytes ||
		got.IndexBytes != want.IndexBytes || got.PaxBytes != want.PaxBytes {
		return ut, fmt.Errorf("composed upload %+v differs from Client.Upload %+v", got, want)
	}
	return ut, nil
}

// traceUpload is the upload workload's traced run: Client.Upload + Save
// untraced for half the window, then the composed, per-layer-timed upload
// for the other half, each checked against the reference summary; then a
// short traced scan over the saved data so every layer reports.
func traceUpload(cfg config, env *uploadEnv, o *outcome) error {
	half := time.Duration(cfg.Seconds / 2 * float64(time.Second))
	var untraced, traced []float64
	for start := time.Now(); time.Since(start) < half || len(untraced) == 0; {
		d, dir, sum, err := uploadOnce(cfg, env.lines)
		os.RemoveAll(dir)
		o.attempted++
		if err == nil {
			err = sameUpload(sum, env.sum)
		}
		if err != nil {
			o.fail("upload: %v", err)
			continue
		}
		untraced = append(untraced, ms(d))
	}
	var total uploadTimes
	for start := time.Now(); time.Since(start) < half || len(traced) == 0; {
		t0 := time.Now()
		ut, err := probeUpload(cfg, env.lines, env.sum)
		o.attempted++
		if err != nil {
			o.fail("composed upload: %v", err)
			continue
		}
		traced = append(traced, ms(time.Since(t0)))
		total.add(ut)
	}
	o.note("upload: %d Client.Upload+Save, %d composed uploads; per upload: parse %.1f ms, marshal %.1f ms, index build %.1f ms, pipeline %.1f ms, save %.1f ms",
		len(untraced), len(traced), ms(total.parse)/float64(len(traced)), ms(total.marshal)/float64(len(traced)),
		ms(total.transform)/float64(len(traced)), ms(total.pipeline)/float64(len(traced)), ms(total.save)/float64(len(traced)))

	// The query-side layers, from a short traced scan over the same data.
	scfg := cfg
	scfg.Seconds = min(cfg.Seconds/4, 4)
	qe, _, err := setupQueryEnv(scfg)
	if err != nil {
		return err
	}
	defer qe.close()
	if err := prefillScan(qe.h); err != nil {
		return err
	}
	if _, err := traceQueries(scfg, qe, o, scanPhase{cfg: scfg}); err != nil {
		return err
	}
	o.add("obs.trace_overhead_pct", (median(traced)/median(untraced)-1)*100, "%")
	addUploadLayers(o, total, len(traced))
	return nil
}

func (u *uploadTimes) add(o uploadTimes) {
	u.parse += o.parse
	u.marshal += o.marshal
	u.transform += o.transform
	u.pipeline += o.pipeline
	u.save += o.save
	u.lines += o.lines
	u.blocks += o.blocks
	u.replicas += o.replicas
}

// addUploadLayers reports the upload-side layers of runs uploads.
func addUploadLayers(o *outcome, u uploadTimes, runs int) {
	o.add("core.parse_ns_per_line", ratio(float64(u.parse), float64(u.lines)), "ns")
	o.add("index.build_ms_per_replica", ratio(ms(u.transform), float64(u.replicas)), "ms")
	o.add("pax.marshal_ms_per_block", ratio(ms(u.marshal), float64(u.blocks)), "ms")
	o.add("hdfs.pipeline_ms_per_block", ratio(ms(u.pipeline), float64(u.blocks)), "ms")
	o.add("hdfs.save_ms", ratio(ms(u.save), float64(runs)), "ms")
}
