package core

import (
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/schema"
)

// rowOracleInput is the independent reference the vectorized pipeline is
// tested against: HAIL's input format with its record readers replaced by
// a row-at-a-time scan (readBlockRows/emitRange) — per-block access-path
// choice shared, column decoding and predicate evaluation scalar. It
// overrides OpenBlock as well as Open: the engine runs blocks through
// OpenBlock, and the embedded InputFormat's OpenBlock would open the batch
// reader.
type rowOracleInput struct{ *InputFormat }

func (f rowOracleInput) Open(split mapred.Split, node hdfs.NodeID) (mapred.RecordReader, error) {
	return rowOracleReader{&recordReader{
		cluster: f.Cluster,
		query:   f.Query,
		split:   split,
		node:    node,
	}}, nil
}

func (f rowOracleInput) OpenBlock(split mapred.Split, b hdfs.BlockID, node hdfs.NodeID) (mapred.RecordReader, error) {
	sub := split
	sub.Blocks = []hdfs.BlockID{b}
	return f.Open(sub, node)
}

// rowOracleReader holds the reader rather than embedding it, so it never
// implements mapred.BatchReader.
type rowOracleReader struct{ r *recordReader }

func (o rowOracleReader) Read(fn func(mapred.Record)) (mapred.TaskStats, error) {
	var stats mapred.TaskStats
	for _, b := range o.r.split.Blocks {
		if err := o.r.readBlockRows(b, fn, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// readBlockRows is the row-at-a-time per-block execution: the oracle's
// counterpart of readBlockBatches.
func (r *recordReader) readBlockRows(b hdfs.BlockID, fn func(mapred.Record), stats *mapred.TaskStats) error {
	bs, err := r.openBlockScan(b, stats)
	if err != nil {
		return err
	}
	if bs.toRow > bs.fromRow {
		if err := r.emitRange(bs, fn, stats); err != nil {
			return err
		}
	}
	if bs.reader.NumBad() > 0 {
		bad, err := bs.reader.ReadAllBad()
		if err != nil {
			return err
		}
		for _, line := range bad {
			stats.RecordsDelivered++
			fn(mapred.Record{Raw: line, Bad: true})
		}
	}
	stats.AddIO(bs.reader.Stats())
	return nil
}

// emitRange reads the filter and projection columns over the candidate row
// range, post-filters row by row, and emits projected rows. Only the
// needed columns are touched — the PAX advantage — and each is read as one
// contiguous range. The projected row handed to fn is a scratch buffer
// reused across records (the same object-reuse contract as Batch.Each).
func (r *recordReader) emitRange(bs *blockScan, fn func(mapred.Record), stats *mapred.TaskStats) error {
	q, proj := bs.q, bs.proj
	cols, _ := neededColumns(q, proj)
	needed := make(map[int][]schema.Value, len(cols))
	for _, col := range cols {
		vals, err := bs.reader.ReadColumnRange(col, bs.fromRow, bs.toRow)
		if err != nil {
			return err
		}
		needed[col] = vals
	}

	n := bs.toRow - bs.fromRow
	stats.RecordsScanned += int64(n)
	row := make(schema.Row, len(proj))
rows:
	for i := 0; i < n; i++ {
		for _, p := range q.Filter {
			if !p.Matches(needed[p.Column][i]) {
				continue rows
			}
		}
		for j, c := range proj {
			row[j] = needed[c][i]
		}
		stats.RecordsDelivered++
		stats.AttrsDelivered += int64(len(proj))
		fn(mapred.Record{Row: row})
	}
	return nil
}
