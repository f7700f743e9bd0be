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
	"time"

	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/experiments"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/report"
	"lcsf/internal/table"
)

// Salts keep the seeds the benchmark derives for different purposes apart.
const (
	saltWarm   = 0x5741524D
	saltBody   = 0x424F4459
	saltSample = 0x53414D50
	saltTenant = 0x54454E54
	saltArrive = 0x41525256
	saltDelta  = 0x44454C54
)

// serviceGrid is the grid the HTTP service audits on when a request names
// none: 100x50 over the continental US.
var serviceGrid = geo.NewGrid(geo.ContinentalUS, 100, 50)

// larModel is the one fixed census model every LAR is drawn over.
func larModel() *census.Model {
	return census.Generate(census.Config{Seed: experiments.DefaultSeed})
}

// scaledLender is lender l at volume times its decisioned count, with its
// randomness drawn from seed.
func scaledLender(l hmda.Lender, volume float64, seed uint64) hmda.Lender {
	l.Decisioned = int(float64(l.Decisioned)*volume + 0.5)
	l.Seed = seed
	return l
}

// larBody writes lender l's generated LAR over buf as the CSV bytes a
// caller sends, and returns its row count.
func larBody(buf []byte, model *census.Model, l hmda.Lender) ([]byte, int, error) {
	recs := hmda.Generate(model, l)
	tbl, err := hmda.ToTable(recs)
	if err != nil {
		return nil, 0, fmt.Errorf("building LAR table: %w", err)
	}
	w := bytes.NewBuffer(buf[:0])
	if err := tbl.WriteCSV(w); err != nil {
		return nil, 0, fmt.Errorf("encoding LAR: %w", err)
	}
	return w.Bytes(), len(recs), nil
}

// ingested is a LAR after the service's ingest layers.
type ingested struct {
	rows int           // CSV data rows
	obs  int           // decisioned observations
	read time.Duration // CSV parse time
	part *partition.Partitioning
}

// ingest runs the service's ingest layers over a LAR body, in the order
// the /audit and /jobs handlers call them: CSV parse, HMDA decode, grid
// partitioning. Each call gets a span under parent.
func ingest(tr *tracer, op, parent int, body []byte, seed uint64) (*ingested, error) {
	start := time.Now()
	s := tr.begin(op, parent, "table.read_csv")
	tbl, err := table.ReadCSV(bytes.NewReader(body), hmda.Schema())
	tr.end(s)
	read := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("parsing LAR: %w", err)
	}
	s = tr.begin(op, parent, "hmda.decode")
	obsv := hmda.ToObservations(hmda.FromTable(tbl))
	tr.end(s)
	s = tr.begin(op, parent, "partition.by_grid")
	part := partition.ByGrid(serviceGrid, obsv, partition.Options{Seed: seed})
	tr.end(s)
	return &ingested{rows: tbl.NumRows(), obs: len(obsv), read: read, part: part}, nil
}

// render builds and encodes the JSON report the service returns.
func render(tr *tracer, op, parent int, part *partition.Partitioning, res *core.Result) ([]byte, error) {
	s := tr.begin(op, parent, "report.build")
	doc := report.Build(part, serviceGrid, res)
	tr.end(s)
	s = tr.begin(op, parent, "report.encode")
	var buf bytes.Buffer
	err := doc.WriteJSON(&buf)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return buf.Bytes(), nil
}

// audit runs one batch audit under a span, with a fresh collector whose
// phase timings become the span's children; it returns the collector's
// snapshot for the funnel counters.
func audit(ctx context.Context, tr *tracer, op, parent int, part *partition.Partitioning, cfg core.Config) (*core.Result, obs.Snapshot, error) {
	col := obs.NewCollector(16)
	cfg.Collector = col
	s := tr.begin(op, parent, "core.audit")
	res, err := core.AuditContext(ctx, part, cfg)
	tr.end(s)
	if err != nil {
		return nil, obs.Snapshot{}, fmt.Errorf("audit: %w", err)
	}
	snap := col.Snapshot()
	tr.addPhases(op, s, snap)
	return res, snap, nil
}

// replay is what POST /audit does to body, called layer by layer in
// process: it returns the report bytes the service must answer with.
func replay(ctx context.Context, tr *tracer, op, parent int, body []byte) ([]byte, *ingested, obs.Snapshot, error) {
	cfg := core.DefaultConfig()
	in, err := ingest(tr, op, parent, body, cfg.Seed)
	if err != nil {
		return nil, nil, obs.Snapshot{}, err
	}
	res, snap, err := audit(ctx, tr, op, parent, in.part, cfg)
	if err != nil {
		return nil, nil, obs.Snapshot{}, err
	}
	doc, err := render(tr, op, parent, in.part, res)
	return doc, in, snap, err
}

// recordCore adds one audit's funnel, read from its collector, to s.
// eligible is the audit's eligible-region count; the pruning ratio's base
// is the eligible pairs, eligible*(eligible-1)/2.
func recordCore(s series, snap obs.Snapshot, eligible int) {
	c := snap.Counter
	scanned := float64(c(obs.MAuditPairsScanned))
	hits, misses := float64(c(obs.MMCNullCacheHits)), float64(c(obs.MMCNullCacheMisses))
	e := float64(eligible)
	s.add("core.eligible_regions", e)
	s.add("core.window_candidates", float64(c(obs.MAuditIndexWindowCandidates)))
	s.add("core.pairs_scanned", scanned)
	s.add("core.candidates", float64(c(obs.MAuditCandidates)))
	s.add("core.flagged", float64(c(obs.MAuditFlagged)))
	s.add("core.pruning_ratio", ratio(scanned, e*(e-1)/2))
	s.add("core.ns_per_scanned_pair", 1e9*ratio(snap.Histograms[obs.MAuditPhaseSweepSeconds].Sum, scanned))
	s.add("core.null_prewarm_keys", float64(c(obs.MMCNullPrewarmKeys)))
	s.add("core.null_prewarm_worlds", float64(c(obs.MMCNullPrewarmWorlds)))
	s.add("core.null_cache_hit_rate", ratio(hits, hits+misses))
	s.add("core.sweep_steals", float64(c(obs.MAuditSweepSteals)))
}

// recordIngest adds the ingest layers' counts and rates for one body.
func recordIngest(s series, in *ingested, bodyBytes int) {
	s.add("table.rows", float64(in.rows))
	s.add("table.mb_per_s", ratio(float64(bodyBytes)/1e6, in.read.Seconds()))
	s.add("hmda.decisioned_ratio", ratio(float64(in.obs), float64(in.rows)))
	s.add("partition.regions_nonempty", float64(len(in.part.NonEmpty(1))))
	s.add("partition.dropped_out_of_grid", float64(in.obs-in.part.TotalN))
}

// sameResult reports how two audit results differ, nil when they are
// identical field for field.
func sameResult(a, b *core.Result) error {
	if a.Candidates != b.Candidates || a.EligibleRegions != b.EligibleRegions || a.GlobalRate != b.GlobalRate {
		return fmt.Errorf("summary differs: candidates %d/%d, eligible %d/%d, rate %v/%v",
			a.Candidates, b.Candidates, a.EligibleRegions, b.EligibleRegions, a.GlobalRate, b.GlobalRate)
	}
	if len(a.Pairs) != len(b.Pairs) {
		return fmt.Errorf("flagged %d pairs vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			return fmt.Errorf("pair %d differs: %+v vs %+v", i, a.Pairs[i], b.Pairs[i])
		}
	}
	return nil
}

// service is the HTTP handler under test on a loopback listener.
type service struct {
	base string
	srv  *http.Server
	done chan error
	hc   *http.Client
}

func startService(h http.Handler) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	return err
}

// call makes one request and reads the whole response body.
func (s *service) call(method, path, apiKey string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// counters reads the service's obs counters through GET /metrics.
func (s *service) counters() (map[string]int64, error) {
	status, data, err := s.call(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return m.Counters, nil
}

// recordServer adds the change in the service's status and failure
// counters between two /metrics reads.
func recordServer(s series, before, after map[string]int64) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	s.add("server.status_2xx", d(obs.MHTTPStatusPrefix+"2xx"))
	s.add("server.status_4xx", d(obs.MHTTPStatusPrefix+"4xx"))
	s.add("server.status_5xx", d(obs.MHTTPStatusPrefix+"5xx"))
	s.add("server.write_failed", d(obs.MHTTPWriteFailed))
}
