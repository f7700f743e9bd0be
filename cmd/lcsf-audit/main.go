// Command lcsf-audit runs the LC-spatial-fairness audit over a Loan
// Application Register CSV or a points-of-interest CSV (as written by
// lcsf-datagen, or any file with the same columns) and reports the spatially
// unfair pairs of regions.
//
// Usage:
//
//	lcsf-audit -lar data/lar_bank_of_america.csv
//	lcsf-audit -lar data/lar_loan_depot.csv -cols 50 -rows 25 -top 10 -map
//	lcsf-audit -lar data/lar_wells_fargo.csv -dissimilarity statparity -delta 0.05
//	lcsf-audit -lar data/lar_bank_of_america.csv -out-json report.json -out-geojson map.geojson
//	lcsf-audit -places data/places.csv -census-seed 2020 -cols 20 -rows 20 -ethical
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lcsf/internal/census"
	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/hmda"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
	"lcsf/internal/poi"
	"lcsf/internal/report"
	"lcsf/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, runs the audit,
// writes human output to stdout and errors to stderr, and returns the
// process exit code (0 success, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lcsf-audit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		lar        = fs.String("lar", "", "LAR CSV file to audit (mutually exclusive with -places)")
		places     = fs.String("places", "", "points-of-interest CSV to audit (food-access use case)")
		censusSeed = fs.Uint64("census-seed", 2020, "seed of the census model the -places file was generated against")
		tracts     = fs.Int("tracts", 0, "tract count of that census model (0 = default)")
		ethical    = fs.Bool("ethical", false, "use the relaxed ethical-spatial-fairness thresholds")
		cols       = fs.Int("cols", 100, "grid columns")
		rows       = fs.Int("rows", 50, "grid rows")
		epsilon    = fs.Float64("epsilon", 0.001, "similarity threshold (Mann-Whitney p-value floor)")
		delta      = fs.Float64("delta", 0.001, "dissimilarity threshold")
		eta        = fs.Float64("eta", 0.05, "outcome-similarity threshold (rate-gap fast path; 0 disables)")
		alpha      = fs.Float64("alpha", 0.01, "Monte-Carlo significance level")
		worlds     = fs.Int("worlds", 999, "Monte-Carlo worlds (the paper's m)")
		minSize    = fs.Int("min-region", 100, "minimum individuals per region")
		diss       = fs.String("dissimilarity", "zscore", "dissimilarity metric: zscore, statparity, or di")
		top        = fs.Int("top", 5, "number of most-unfair pairs to describe")
		showMap    = fs.Bool("map", false, "print a terminal map of the unfair regions")
		seed       = fs.Uint64("seed", 1, "Monte-Carlo seed")
		outJSON    = fs.String("out-json", "", "write the full report as JSON to this file")
		outCSV     = fs.String("out-csv", "", "write the unfair pairs as CSV to this file")
		outMD      = fs.String("out-md", "", "write a Markdown report to this file")
		outGeoJSON = fs.String("out-geojson", "", "write the flagged regions as GeoJSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "lcsf-audit: "+format+"\n", a...)
		return 1
	}
	if (*lar == "") == (*places == "") {
		fmt.Fprintln(stderr, "exactly one of -lar or -places is required")
		fs.Usage()
		return 2
	}
	if err := geo.CheckGridDims(*cols, *rows); err != nil {
		fmt.Fprintf(stderr, "lcsf-audit: -cols/-rows: %v\n", err)
		return 2
	}
	if *top < 0 {
		fmt.Fprintf(stderr, "lcsf-audit: -top %d is negative\n", *top)
		return 2
	}

	cfg := core.DefaultConfig()
	if *ethical {
		cfg = core.EthicalConfig()
	}
	// Threshold flags override the chosen base configuration only when the
	// user set them explicitly, so -ethical keeps its relaxed defaults.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["epsilon"] {
		cfg.Epsilon = *epsilon
	}
	if set["delta"] {
		cfg.Delta = *delta
	}
	if set["eta"] {
		cfg.Eta = *eta
	}
	if set["alpha"] {
		cfg.Alpha = *alpha
	}
	if set["worlds"] {
		cfg.MCWorlds = *worlds
	}
	if set["min-region"] {
		cfg.MinRegionSize = *minSize
	}
	cfg.Seed = *seed
	switch *diss {
	case "zscore":
		cfg.Dissimilarity = core.ZScoreDissimilarity{}
	case "statparity":
		cfg.Dissimilarity = core.StatParityDissimilarity{}
	case "di":
		cfg.Dissimilarity = core.DisparateImpactDissimilarity{}
	default:
		fmt.Fprintf(stderr, "lcsf-audit: unknown -dissimilarity %q\n", *diss)
		return 2
	}
	// The audit's settings are checked before any input is read, so a bad
	// one is a usage error however large the file.
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "lcsf-audit: %v\n", err)
		return 2
	}

	var observations []partition.Observation
	switch {
	case *lar != "":
		records, err := hmda.ReadCSV(*lar)
		if err != nil {
			return fail("%v", err)
		}
		observations = hmda.ToObservations(records)
		if len(observations) == 0 {
			return fail("no decisioned (approved/denied) records in input")
		}
	default:
		pl, err := poi.ReadCSV(*places)
		if err != nil {
			return fail("%v", err)
		}
		// Places carry only tract references; rebuild the census model the
		// file was generated against to attach neighborhood demographics.
		model := census.Generate(census.Config{Seed: *censusSeed, NumTracts: *tracts})
		for _, p := range pl {
			if p.Tract < 0 || p.Tract >= len(model.Tracts) {
				return fail("place %d references tract %d outside the census model (wrong -census-seed or -tracts?)", p.ID, p.Tract)
			}
		}
		observations = poi.ToObservations(model, pl, *censusSeed+1)
	}

	col := obs.NewCollector(16)
	cfg.Collector = col

	grid := geo.NewGrid(geo.ContinentalUS, *cols, *rows)
	part := partition.ByGrid(grid, observations, partition.Options{Seed: *seed})
	res, err := core.Audit(part, cfg)
	if err != nil {
		return fail("%v", err)
	}

	fmt.Fprintf(stdout, "audited %d observations over a %s grid (global positive rate %.3f)\n",
		part.TotalN, grid, res.GlobalRate)
	fmt.Fprintf(stdout, "eligible regions: %d; candidate pairs: %d; unfair pairs: %d\n",
		res.EligibleRegions, res.Candidates, len(res.Pairs))
	printFunnel(stdout, col.Snapshot())

	for i, pr := range res.Top(*top) {
		ci, cj := grid.CellCenter(pr.I), grid.CellCenter(pr.J)
		fmt.Fprintf(stdout, "%2d. region %d at %s (rate %.2f, protected share %.2f) vs region %d at %s (rate %.2f, protected share %.2f)  tau=%.1f p=%.3f\n",
			i+1, pr.I, ci, pr.RateI, pr.SharedI, pr.J, cj, pr.RateJ, pr.SharedJ, pr.Tau, pr.P)
	}

	if *showMap {
		set := res.UnfairRegionSet()
		fmt.Fprintln(stdout, "unfair regions ('1'):")
		fmt.Fprint(stdout, viz.HighlightMap(grid, []map[int]bool{set}))
	}

	if *outJSON != "" || *outCSV != "" || *outMD != "" || *outGeoJSON != "" {
		doc := report.Build(part, grid, res)
		write := func(path string, fn func(*os.File) error) error {
			if path == "" {
				return nil
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := fn(f); err != nil {
				_ = f.Close() // the write error is the one worth reporting
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
			return nil
		}
		if err := write(*outJSON, func(f *os.File) error { return doc.WriteJSON(f) }); err != nil {
			return fail("%v", err)
		}
		if err := write(*outCSV, func(f *os.File) error { return doc.WriteCSV(f) }); err != nil {
			return fail("%v", err)
		}
		if err := write(*outMD, func(f *os.File) error {
			_, err := f.WriteString(doc.Markdown(20))
			return err
		}); err != nil {
			return fail("%v", err)
		}
		if err := write(*outGeoJSON, func(f *os.File) error {
			data, err := report.GeoJSON(part, grid, res)
			if err != nil {
				return err
			}
			_, err = f.Write(data)
			return err
		}); err != nil {
			return fail("%v", err)
		}
	}
	return 0
}

// printFunnel reports how the audit spent its work: the candidate index's
// pruning (when the indexed plan ran), the gate cascade's per-phase exits,
// and the Monte-Carlo null store's traffic.
func printFunnel(w io.Writer, s obs.Snapshot) {
	if total := s.Counter(obs.MAuditIndexPairsTotal); total > 0 {
		emitted := s.Counter(obs.MAuditIndexWindowCandidates)
		fmt.Fprintf(w, "candidate index: emitted %d of %d pairs (%.1f%% pruned by windows), %d rejected by summary bounds\n",
			emitted, total, 100*float64(total-emitted)/float64(total),
			s.Counter(obs.MAuditIndexBoundsRejections))
	}
	fmt.Fprintf(w, "gate funnel: %d scanned -> %d dissimilarity rejects, %d eta fast-path exits, %d similarity rejects -> %d candidates -> %d flagged\n",
		s.Counter(obs.MAuditPairsScanned),
		s.Counter(obs.MAuditDissRejections),
		s.Counter(obs.MAuditEtaFastPath),
		s.Counter(obs.MAuditSimRejections),
		s.Counter(obs.MAuditCandidates),
		s.Counter(obs.MAuditFlagged))
	fmt.Fprintf(w, "monte carlo: %d worlds simulated\n", s.Counter(obs.MAuditMCWorlds))
	if hits, misses := s.Counter(obs.MMCNullCacheHits), s.Counter(obs.MMCNullCacheMisses); hits+misses > 0 {
		fmt.Fprintf(w, "null store: %d hits, %d samples filled (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
}
