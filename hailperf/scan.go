package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/workload"
)

// The scan mix is stratified: query i belongs to class i%20 of
// scanClasses, and its selectivity quantile to decile (i/20)%10 (the top
// two deciles of the all-column classes share one band), so every 200
// queries hold the same shares of access paths, projections and
// selectivities under any seed. The seed draws the constants within each
// stratum. Shares: 45% one predicate on an indexed attribute, 15% an
// indexed AND an unindexed predicate, 40% one unindexed predicate; 10%
// of the queries project every column.
var scanClasses = [20]struct {
	indexed, unindexed string // predicate kinds; "" for none
	allColumns         bool
}{
	{"date", "", false}, {"date", "", false}, {"date", "", false}, {"date", "", true},
	{"revenue", "", false}, {"revenue", "", false}, {"revenue", "", false}, {"revenue", "", false},
	{"needle", "", false},
	{"date", "duration", false}, {"date", "duration", false}, {"revenue", "country", false},
	{"", "duration", false}, {"", "duration", false}, {"", "duration", false}, {"", "duration", false},
	{"", "duration", true}, {"", "country", false}, {"", "country", false}, {"", "word", false},
}

// visitDate spans 11807 days from 1970-01-01 (workload.GenerateUserVisits).
const (
	dateMin  = 0
	dateDays = 11807
)

// fmtDate formats a visitDate given in days from dateMin.
func fmtDate(d int) string { return schema.FormatDate(int32(dateMin + d)) }

// logScale maps a quantile u in [0,1) to [lo, hi] on a log scale, so
// needle-like and wide predicates are equally common.
func logScale(u, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// predicate returns a predicate of the given kind whose width is at
// quantile u. Selectivity runs from a needle to about 20%.
func predicate(rng *rand.Rand, kind string, u float64) string {
	switch kind {
	case "date": // @3 visitDate, indexed
		w := int(logScale(u, 1, 0.2*dateDays))
		from := rng.Intn(dateDays - w)
		return fmt.Sprintf("@3 between(%s,%s)", fmtDate(from), fmtDate(from+w))
	case "revenue": // @4 adRevenue, indexed
		w := math.Round(logScale(u, 0.1, 100)*10) / 10
		from := float64(rng.Intn(int((500-w)*10))) / 10
		return fmt.Sprintf("@4 between(%g,%g)", from, math.Round((from+w)*10)/10)
	case "needle": // @1 sourceIP, indexed
		return "@1 = " + workload.NeedleIP
	case "duration": // @9, unindexed
		w := int(logScale(u, 1, 200))
		from := 1 + rng.Intn(999-w)
		return fmt.Sprintf("@9 between(%d,%d)", from, from+w)
	case "country": // @6, unindexed, 10% each
		return "@6 = " + []string{"DEU", "USA", "FRA", "MEX", "TUR", "BRA", "IND", "CHN", "JPN", "KOR"}[rng.Intn(10)]
	default: // @8 searchWord, unindexed
		return "@8 = " + []string{"elephant", "index", "hadoop", "replica", "checksum", "weblog"}[rng.Intn(6)]
	}
}

// projection returns 1-3 distinct random columns, or every column (no
// projection clause).
func projection(rng *rand.Rand, all bool) string {
	if all {
		return ""
	}
	cols := rng.Perm(9)[:1+rng.Intn(3)]
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("@%d", c+1)
	}
	return ", projection={" + strings.Join(parts, ",") + "}"
}

// scanGen generates the scan workload's never-repeating ad-hoc queries.
type scanGen struct {
	rng  *rand.Rand
	n    int
	seen map[string]bool
}

func newScanGen(seed int64) *scanGen {
	return &scanGen{rng: rand.New(rand.NewSource(seed*7919 + 17)), seen: make(map[string]bool)}
}

func (g *scanGen) next() string {
	c := scanClasses[g.n%len(scanClasses)]
	stratum := g.n / len(scanClasses) % 10
	g.n++
	for {
		u := (float64(stratum) + g.rng.Float64()) / 10
		if c.allColumns && stratum >= 8 {
			// The heaviest queries, every column at the widest band, form
			// one group of 2% of the mix, so p99 falls inside that group
			// rather than on the edge of a 1% class.
			u = 0.95 + 0.05*g.rng.Float64()
		}
		var preds []string
		if c.indexed != "" {
			preds = append(preds, predicate(g.rng, c.indexed, u))
		}
		if c.unindexed != "" {
			uu := u
			if c.indexed != "" {
				uu = g.rng.Float64()
			}
			preds = append(preds, predicate(g.rng, c.unindexed, uu))
		}
		ann := `@HailQuery(filter="` + strings.Join(preds, " and ") + `"` + projection(g.rng, c.allColumns) + ")"
		if !g.seen[ann] {
			g.seen[ann] = true
			return ann
		}
	}
}

// scanPrefill are all-row, all-column queries run during set-up: each
// admits the whole dataset's output (about 10 MB), so the cache is past
// its budget, and evicting, before the timed window. No timed query uses
// <=.
var scanPrefill = func() []string {
	out := make([]string, 8)
	for i := range out {
		out[i] = fmt.Sprintf(`@HailQuery(filter="@9 <= %d")`, 1000+i)
	}
	return out
}()

// queryEnv is a set-up HAIL deployment: the upload summary, the saved
// directory, and haild serving that directory. It holds neither the text
// nor the uploading cluster, so the live heap measured at the end of the
// window is haild's.
type queryEnv struct {
	sum core.UploadSummary
	dir string
	h   *haild
}

func (e *queryEnv) close() error {
	err := e.h.close()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// setupQueryEnv uploads the seed's text, saves it and starts haild over
// the directory. It returns the text too, for set-up work that needs it.
func setupQueryEnv(cfg config) (*queryEnv, []string, error) {
	dir, err := runDir(cfg, "fs")
	if err != nil {
		return nil, nil, err
	}
	lines := genLines(cfg.Rows, cfg.Seed)
	_, sum, err := uploadAndSave(cfg, lines, dir)
	if err != nil {
		return nil, nil, err
	}
	h, err := startHaild(cfg, dir, 0)
	if err != nil {
		return nil, nil, err
	}
	return &queryEnv{sum: sum, dir: dir, h: h}, lines, nil
}

// prefillScan brings the result cache past its budget.
func prefillScan(h *haild) error {
	for _, ann := range scanPrefill {
		if _, err := h.post(&server.QueryRequest{File: hailFile, Query: ann, Limit: 1}); err != nil {
			return fmt.Errorf("prefill %s: %w", ann, err)
		}
	}
	return nil
}

// served is one answered request: what was asked and what came back.
type served struct {
	req     server.QueryRequest
	resp    *server.QueryResponse
	latency float64 // ms from when the request was due (closed loop: sent)
	late    float64 // ms the request was sent after it was due
}

// counters are a response's deterministic counts: for one seed they
// repeat exactly from run to run.
type counters struct {
	RowCount, Tasks, IndexScans, FullScans, BlocksFromCache, NameNodeOps int
	BytesRead                                                            int64
	ResponseBytes                                                        int
}

func countersOf(s served) counters {
	r := s.resp
	return counters{r.RowCount, r.Tasks, r.IndexScans, r.FullScans, r.BlocksFromCache, r.NameNodeOps, r.BytesRead, payloadBytes(r)}
}

// payloadBytes is the size of a response as haild encodes it, less its
// two run-dependent fields, latency_ms and trace_id.
func payloadBytes(r *server.QueryResponse) int {
	c := *r
	c.LatencyMS, c.TraceID = 0, 0
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&c); err != nil {
		return 0
	}
	return b.Len()
}

// runScanWindow sends never-repeating queries from one closed-loop client
// until the deadline or, when count > 0, for exactly count requests.
func runScanWindow(cfg config, h *haild, gen *scanGen, seconds float64, count int, trace bool, o *outcome) ([]served, float64) {
	var out []served
	attempted0 := o.attempted
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for (count > 0 && o.attempted-attempted0 < count) || (count <= 0 && time.Now().Before(deadline)) {
		req := server.QueryRequest{File: hailFile, Query: gen.next(), Limit: cfg.ScanLimit, Trace: trace}
		t0 := time.Now()
		resp, err := h.post(&req)
		lat := ms(time.Since(t0))
		o.attempted++
		if err != nil {
			o.fail("%s: %v", req.Query, err)
			continue
		}
		out = append(out, served{req, resp, lat, 0})
	}
	return out, time.Since(start).Seconds()
}

// verifyScan checks every scan answer against the oracle.
func verifyScan(cfg config, answers []served, o *outcome) error {
	or, err := newOracle(genLines(cfg.Rows, cfg.Seed))
	if err != nil {
		return err
	}
	// The timed window is over, so the checks run on every client's core.
	errs := make([]error, len(answers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(answers); i = int(next.Add(1) - 1) {
				ref, err := or.answer(answers[i].req.Query)
				if err == nil {
					err = checkRows(answers[i].resp, ref, answers[i].req.Limit)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			o.fail("%s: %v", answers[i].req.Query, err)
		}
	}
	return nil
}

func latencies(answers []served) []float64 {
	out := make([]float64, len(answers))
	for i, a := range answers {
		out[i] = a.latency
	}
	return out
}

func runScan(cfg config) (*outcome, error) {
	o := &outcome{}
	reps := cfg.SetupReps
	if cfg.Trace {
		reps = 1
	}
	env, setupS, err := setupMedian(reps, func() (*queryEnv, error) {
		e, _, err := setupQueryEnv(cfg)
		if err != nil {
			return nil, err
		}
		if err := prefillScan(e.h); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	if cfg.Trace {
		return o, traceQueryWorkload(cfg, env, o, scanPhase{cfg: cfg})
	}

	answers, elapsed := runScanWindow(cfg, env.h, newScanGen(cfg.Seed), cfg.Seconds, 0, false, o)
	heap := liveHeapMB()
	if err := verifyScan(cfg, answers, o); err != nil {
		return nil, err
	}
	lats := latencies(answers)
	o.note("scan: %d queries in %.2fs, closed loop, 1 client, limit %d", len(answers), elapsed, cfg.ScanLimit)
	noteMix(o, answers)
	o.note("latency deciles (ms): %s", deciles(lats))
	o.add("setup_s", setupS, "s")
	o.add("p50_ms", median(lats), "ms")
	o.add("tail_ms", quantile(lats, 0.99), "ms")
	o.add("ops_per_s", float64(len(answers))/elapsed, "1/s")
	o.add("live_heap_mb", heap, "MB")
	if len(answers) < 1000 {
		o.note("WARNING: %d queries is fewer than the 1000 a p99 needs", len(answers))
	}
	return o, nil
}

// noteMix records the access-path mix the answers actually took.
func noteMix(o *outcome, answers []served) {
	var idx, full, cached, tasks, nn int
	var bytes int64
	for _, a := range answers {
		idx += a.resp.IndexScans
		full += a.resp.FullScans
		cached += a.resp.BlocksFromCache
		tasks += a.resp.Tasks
		nn += a.resp.NameNodeOps
		bytes += a.resp.BytesRead
	}
	n := float64(max(len(answers), 1))
	o.note("blocks: %d index scans, %d full scans, %d from cache; per query: %.1f tasks, %.1f namenode ops, %.0f bytes read",
		idx, full, cached, float64(tasks)/n, float64(nn)/n, float64(bytes)/n)
}
