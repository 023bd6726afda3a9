package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/workload"
)

// hailFile is the HAIL file every workload uploads and queries.
const hailFile = "/uservisits"

// layout is Bob's layout from the paper: three replicas, clustered and
// indexed on visitDate, sourceIP and adRevenue.
func layout(blockSize int) core.LayoutConfig {
	return core.LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
		BlockSize:   blockSize,
	}
}

// genLines generates the seeded UserVisits text. NeedleIP is planted once
// every 2000 rows so needle lookups return a few dozen rows.
func genLines(rows int, seed int64) []string {
	return workload.GenerateUserVisits(rows, seed, workload.UserVisitsOptions{NeedleEvery: 2000})
}

// uploadAndSave uploads lines into a fresh cluster through the HAIL client
// and persists it to dir.
func uploadAndSave(cfg config, lines []string, dir string) (*hdfs.Cluster, core.UploadSummary, error) {
	cluster, err := hdfs.NewCluster(cfg.Nodes)
	if err != nil {
		return nil, core.UploadSummary{}, err
	}
	client := &core.Client{Cluster: cluster, Config: layout(cfg.BlockSize)}
	sum, err := client.Upload(hailFile, lines)
	if err != nil {
		return nil, sum, fmt.Errorf("upload: %w", err)
	}
	if err := cluster.Save(dir); err != nil {
		return nil, sum, fmt.Errorf("save: %w", err)
	}
	return cluster, sum, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// oracle answers queries serially from the parsed text, with no HAIL
// code between the rows and the answer: the reference every served
// answer is checked against.
type oracle struct {
	sch  *schema.Schema
	rows []schema.Row
}

func newOracle(lines []string) (*oracle, error) {
	sch := workload.UserVisitsSchema()
	p := schema.NewParser(sch)
	rows := make([]schema.Row, 0, len(lines))
	for _, l := range lines {
		r, err := p.ParseLine(l)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		rows = append(rows, r)
	}
	return &oracle{sch: sch, rows: rows}, nil
}

// answer returns the sorted output lines of the annotated query: the
// projected attributes of every matching row, comma-separated, as
// workload.PassthroughMap emits them.
func (o *oracle) answer(ann string) ([]string, error) {
	q, err := query.ParseAnnotation(o.sch, ann)
	if err != nil {
		return nil, err
	}
	proj := q.ProjectionOrAll(o.sch)
	buf := make(schema.Row, len(proj))
	var out []string
	for _, r := range o.rows {
		if q.MatchesRow(r) {
			for j, c := range proj {
				buf[j] = r[c]
			}
			out = append(out, buf.Line(','))
		}
	}
	sort.Strings(out)
	return out, nil
}

// engineRows answers q through the HAIL engine on cluster, with no result
// cache, sorted.
func engineRows(cluster *hdfs.Cluster, q *query.Query) ([]string, error) {
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	res, err := e.Run(&mapred.Job{
		Name:  "check",
		File:  hailFile,
		Input: &core.InputFormat{Cluster: cluster, Query: q},
		Map:   workload.PassthroughMap,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]string, len(res.Output))
	for i, kv := range res.Output {
		rows[i] = kv.Key
	}
	sort.Strings(rows)
	return rows, nil
}

// checkRows checks one response against its sorted reference rows. Without
// a limit the rows must equal the reference as a multiset; with one, the
// row count must equal the reference count and every returned row must be
// a distinct member of the reference multiset.
func checkRows(resp *server.QueryResponse, ref []string, limit int) error {
	if resp.RowCount != len(ref) {
		return fmt.Errorf("row_count %d, reference has %d", resp.RowCount, len(ref))
	}
	want := len(ref)
	if limit > 0 && limit < want {
		want = limit
	}
	if len(resp.Rows) != want {
		return fmt.Errorf("%d rows returned, want %d", len(resp.Rows), want)
	}
	got := append([]string(nil), resp.Rows...)
	sort.Strings(got)
	j := 0
	for _, r := range got {
		for j < len(ref) && ref[j] < r {
			j++
		}
		if j == len(ref) || ref[j] != r {
			return fmt.Errorf("row %q is not in the reference", r)
		}
		j++
	}
	return nil
}

// haild is the query server on a loopback listener, driven over HTTP by a
// client holding at most cfg.Clients connections.
type haild struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startHaild(cfg config, dir string, traceBuffer int) (*haild, error) {
	srv, err := server.New(server.Config{
		FSDir:       dir,
		MaxInFlight: cfg.MaxInFlight,
		Parallelism: cfg.Parallelism,
		OfferRate:   -1, // no adaptive builds: the replica topology stays fixed
		TraceBuffer: traceBuffer,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &haild{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     cfg.Clients,
			MaxIdleConnsPerHost: cfg.Clients,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for the serve loop to return, and
// closes the server.
func (h *haild) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// httpStatusError is a non-200 reply.
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, e.body)
}

// post sends one POST /query and returns the decoded reply.
func (h *haild) post(req *server.QueryRequest) (*server.QueryResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	r, err := h.client.Post(h.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, &httpStatusError{r.StatusCode, string(bytes.TrimSpace(data))}
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// getJSON fetches path and decodes the JSON reply into v.
func (h *haild) getJSON(path string, v any) error {
	r, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(r.Body)
		return &httpStatusError{r.StatusCode, string(bytes.TrimSpace(data))}
	}
	return json.NewDecoder(r.Body).Decode(v)
}
