package core

import (
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// runPath runs one query over the file through the given input format,
// single-threaded so the output order is deterministic.
func runPath(t *testing.T, cluster *hdfs.Cluster, file string, input mapred.InputFormat) *mapred.JobResult {
	t.Helper()
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	res, err := e.Run(&mapred.Job{
		Name:   "vector-ab",
		File:   file,
		Input:  input,
		Map:    workload.PassthroughMap,
		MapSig: workload.PassthroughMapSig,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// normStats zeroes the counters only the batch pipeline reports, leaving
// everything the batch pipeline and the row oracle must agree on.
func normStats(s mapred.TaskStats) mapred.TaskStats {
	s.RowsScanned, s.RowsSelected, s.BatchesEmitted = 0, 0, 0
	return s
}

// TestBatchPathMatchesRowPath is the vectorized pipeline's equivalence
// gate at the core layer: for every Bob query plus scan/edge cases (no
// filter, string range, half-bounded predicate, empty result, a selective
// full scan on an unindexed column), the batch reader and the
// row-at-a-time oracle (row_oracle_test.go) must produce byte-identical
// output in identical order, and identical TaskStats up to the batch-only
// counters — same bytes, same seeks, same partitions, same records. The
// batch reader's cache signature must be exactly the query's own.
func TestBatchPathMatchesRowPath(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 6_000, workload.UserVisitsOptions{NeedleEvery: 500, BadEvery: 750})
	s := workload.UserVisitsSchema()

	queries := []*query.Query{
		{}, // full scan, all attributes
		{Projection: []int{workload.UVSearchWord}},
		{ // string range on a non-indexed attribute
			Filter:     []query.Predicate{query.Between(workload.UVCountryCode, schema.StringVal("AR"), schema.StringVal("MX"))},
			Projection: []int{workload.UVSourceIP, workload.UVCountryCode},
		},
		{ // half-bounded predicate
			Filter:     []query.Predicate{query.AtLeast(workload.UVAdRevenue, schema.FloatVal(900))},
			Projection: []int{workload.UVAdRevenue},
		},
		{ // empty result: index scan narrows to nothing
			Filter:     []query.Predicate{query.Eq(workload.UVVisitDate, schema.DateVal(schema.MustDate("2050-01-01")))},
			Projection: []int{workload.UVSourceIP},
		},
		{ // selective full scan on an unindexed column
			Filter:     []query.Predicate{query.Between(workload.UVDuration, schema.IntVal(100), schema.IntVal(199))},
			Projection: []int{workload.UVSourceIP},
		},
	}
	for _, bq := range workload.BobQueries() {
		queries = append(queries, bq.Query)
	}

	for _, q := range queries {
		if err := q.Validate(s); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		input := &InputFormat{Cluster: cluster, Query: q, Splitting: true}
		if sig, ok := input.QuerySignature(); !ok || sig != q.Signature() {
			t.Errorf("%s: QuerySignature() = %q, %v; want the query's own %q", q, sig, ok, q.Signature())
		}
		row := runPath(t, cluster, "/uv", rowOracleInput{input})
		batch := runPath(t, cluster, "/uv", input)
		if len(row.Output) != len(batch.Output) {
			t.Fatalf("%s: row oracle emitted %d records, batch path %d", q, len(row.Output), len(batch.Output))
		}
		for i := range row.Output {
			if row.Output[i] != batch.Output[i] {
				t.Fatalf("%s: output %d differs: %q vs %q", q, i, row.Output[i], batch.Output[i])
			}
		}
		rs, bs := row.TotalStats(), batch.TotalStats()
		if normStats(rs) != normStats(bs) {
			t.Errorf("%s: stats diverge:\nrow:   %+v\nbatch: %+v", q, normStats(rs), normStats(bs))
		}
		if rs.RowsScanned != 0 || rs.BatchesEmitted != 0 {
			t.Errorf("%s: row oracle reported batch counters: %+v", q, rs)
		}
		if bs.RowsScanned != bs.RecordsScanned {
			t.Errorf("%s: RowsScanned = %d, RecordsScanned = %d", q, bs.RowsScanned, bs.RecordsScanned)
		}
		if bs.RowsSelected > 0 && bs.BatchesEmitted == 0 {
			t.Errorf("%s: selected %d rows but emitted no batches", q, bs.RowsSelected)
		}
	}
}

// TestMapBatchMatchesMap: a job that opts into MapBatch must emit exactly
// what the record form emits — the engine's readRecords fast path and the
// Batch.Each shim are interchangeable.
func TestMapBatchMatchesMap(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 4_000, workload.UserVisitsOptions{BadEvery: 900})
	bq := workload.BobQueries()[0]
	run := func(mb mapred.MapBatchFunc) *mapred.JobResult {
		e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
		res, err := e.Run(&mapred.Job{
			Name:     "mapbatch-ab",
			File:     "/uv",
			Input:    &InputFormat{Cluster: cluster, Query: bq.Query, Splitting: true},
			Map:      workload.PassthroughMap,
			MapBatch: mb,
			MapSig:   workload.PassthroughMapSig,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	record := run(nil)
	batched := run(workload.PassthroughMapBatch)
	if len(record.Output) != len(batched.Output) {
		t.Fatalf("record form emitted %d, batch form %d", len(record.Output), len(batched.Output))
	}
	for i := range record.Output {
		if record.Output[i] != batched.Output[i] {
			t.Fatalf("output %d differs: %q vs %q", i, record.Output[i], batched.Output[i])
		}
	}
}

// TestScanAllocationsNotPerRow pins down the scratch-buffer reuse: on an
// all-fixed-width schema, a whole-split read must not allocate per row —
// the batch pipeline reuses its vectors, selection and scratch row. The
// bound leaves headroom for per-block/per-batch setup (the scan measures
// about 220 allocations) but is orders of magnitude below one allocation
// per row.
func TestScanAllocationsNotPerRow(t *testing.T) {
	const nRows = 16_000
	cluster, err := hdfs.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.SyntheticSchema(),
			SortColumns: []int{0},
			BlockSize:   1 << 20,
		},
	}
	if _, err := client.Upload("/synalloc", workload.GenerateSynthetic(nRows, 7)); err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseAnnotation(workload.SyntheticSchema(),
		`@HailQuery(filter="@2 between(0,5000)", projection={@3,@4,@5})`)
	if err != nil {
		t.Fatal(err)
	}
	f := &InputFormat{Cluster: cluster, Query: q, Splitting: true}
	splits, err := f.Splits("/synalloc")
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	allocs := testing.AllocsPerRun(5, func() {
		rows = 0
		for _, split := range splits {
			rr, err := f.Open(split, split.Locations[0])
			if err != nil {
				t.Fatal(err)
			}
			st, err := rr.Read(func(mapred.Record) {})
			if err != nil {
				t.Fatal(err)
			}
			rows += st.RecordsScanned
		}
	})
	if rows != nRows {
		t.Fatalf("scanned %d rows, want %d", rows, nRows)
	}
	// ~half the rows qualify, so one allocation per delivered row would
	// show up as thousands.
	if allocs > 300 {
		t.Errorf("%v allocations for a %d-row scan — per-row allocation regressed", allocs, nRows)
	}
}
