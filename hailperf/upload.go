package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/pax"
	"repro/internal/query"
	"repro/internal/workload"
)

// uploadCheckQuery is the reference query the upload gate runs over the
// reloaded directory.
const uploadCheckQuery = `@HailQuery(filter="@4 between(10,12)", projection={@1,@3})`

// uploadEnv holds the upload workload's reference: the text, its upload
// summary, the saved directory's size and the check query's answer.
type uploadEnv struct {
	lines    []string
	sum      core.UploadSummary
	dirBytes int64
	ref      []string
}

func (e *uploadEnv) close() error { return nil }

func setupUpload(cfg config) (*uploadEnv, error) {
	lines := genLines(cfg.Rows, cfg.Seed)
	dir, err := runDir(cfg, "ref")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	_, sum, err := uploadAndSave(cfg, lines, dir)
	if err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	or, err := newOracle(lines)
	if err != nil {
		return nil, err
	}
	ref, err := or.answer(uploadCheckQuery)
	if err != nil {
		return nil, err
	}
	return &uploadEnv{lines: lines, sum: sum, dirBytes: size, ref: ref}, nil
}

// sameUpload reports how an upload's summary differs from the reference.
func sameUpload(got, want core.UploadSummary) error {
	if got.Blocks != want.Blocks || got.Rows != want.Rows || got.TextBytes != want.TextBytes ||
		got.PaxBytes != want.PaxBytes || got.StoredBytes != want.StoredBytes || got.IndexBytes != want.IndexBytes {
		return fmt.Errorf("upload summary %+v differs from reference %+v", got, want)
	}
	return nil
}

// checkSaved reloads a saved directory and checks its blocks, rows and
// replicas against the upload summary and its check query against the
// reference answer.
func checkSaved(cfg config, dir string, e *uploadEnv) error {
	cluster, err := hdfs.Load(dir)
	if err != nil {
		return fmt.Errorf("reloading: %w", err)
	}
	nn := cluster.NameNode()
	blocks, err := nn.FileBlocks(hailFile)
	if err != nil {
		return err
	}
	if len(blocks) != e.sum.Blocks {
		return fmt.Errorf("reloaded %d blocks, uploaded %d", len(blocks), e.sum.Blocks)
	}
	var rows int64
	for _, b := range blocks {
		if n := nn.ReplicaCount(b); n != len(layout(cfg.BlockSize).SortColumns) {
			return fmt.Errorf("block %d has %d replicas", b, n)
		}
		data, _, err := cluster.ReadBlockAny(b, 0)
		if err != nil {
			return err
		}
		paxData, _, err := core.ParseFrame(data)
		if err != nil {
			return err
		}
		rd, err := pax.NewReader(paxData)
		if err != nil {
			return err
		}
		rows += int64(rd.NumRows())
	}
	if rows != e.sum.Rows {
		return fmt.Errorf("reloaded %d rows, uploaded %d", rows, e.sum.Rows)
	}
	q, err := query.ParseAnnotation(workload.UserVisitsSchema(), uploadCheckQuery)
	if err != nil {
		return err
	}
	got, err := engineRows(cluster, q)
	if err != nil {
		return err
	}
	if !slices.Equal(got, e.ref) {
		return fmt.Errorf("check query over the reloaded directory returned %d rows, reference %d", len(got), len(e.ref))
	}
	return nil
}

// uploadOnce is one timed operation: Upload plus Save into a fresh
// cluster and directory. It returns the elapsed time and the directory.
func uploadOnce(cfg config, lines []string) (time.Duration, string, core.UploadSummary, error) {
	dir, err := runDir(cfg, "up")
	if err != nil {
		return 0, "", core.UploadSummary{}, err
	}
	start := time.Now()
	_, sum, err := uploadAndSave(cfg, lines, dir)
	return time.Since(start), dir, sum, err
}

func runUpload(cfg config) (*outcome, error) {
	o := &outcome{}
	reps := cfg.SetupReps
	if cfg.Trace {
		reps = 1
	}
	env, setupS, err := setupMedian(reps, func() (*uploadEnv, error) { return setupUpload(cfg) })
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return o, traceUpload(cfg, env, o)
	}

	var lats []float64
	lastDir := ""
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for time.Now().Before(deadline) || len(lats) == 0 {
		d, dir, sum, err := uploadOnce(cfg, env.lines)
		o.attempted++
		if err == nil {
			err = sameUpload(sum, env.sum)
		}
		if err == nil {
			var size int64
			if size, err = dirBytes(dir); err == nil && size != env.dirBytes {
				err = fmt.Errorf("saved %d bytes, reference saved %d", size, env.dirBytes)
			}
		}
		if err != nil {
			o.fail("upload: %v", err)
			os.RemoveAll(dir)
			continue
		}
		lats = append(lats, ms(d))
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = dir
	}
	elapsed := time.Since(start).Seconds()
	heap := liveHeapMB()
	if lastDir != "" {
		o.attempted++
		if err := checkSaved(cfg, lastDir, env); err != nil {
			o.fail("reload check: %v", err)
		}
	}

	textMB := float64(env.sum.TextBytes) / (1 << 20)
	o.note("upload: %d uploads of %.1f MB text (%d rows, %d blocks x %d replicas) in %.2fs, closed loop, 1 client",
		len(lats), textMB, env.sum.Rows, env.sum.Blocks, len(layout(cfg.BlockSize).SortColumns), elapsed)
	o.note("upload_mb_s = %.2f, storage_amp = %.4f (saved %d bytes), index bytes %d",
		textMB/(median(lats)/1000), float64(env.dirBytes)/float64(env.sum.TextBytes), env.dirBytes, env.sum.IndexBytes)
	o.add("setup_s", setupS, "s")
	o.add("p50_ms", median(lats), "ms")
	o.add("tail_ms", quantile(lats, 0.9), "ms")
	o.add("ops_per_s", float64(len(lats))/elapsed, "1/s")
	o.add("live_heap_mb", heap, "MB")
	return o, nil
}
