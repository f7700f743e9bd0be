package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lcsf/internal/core"
	"lcsf/internal/geo"
	"lcsf/internal/obs"
	"lcsf/internal/partition"
)

// ingestBound is FuzzIngestAudit's wall-time bound per input: ingest,
// partition and audit of a body of at most a few kilobytes on a 4x2 grid.
const ingestBound = 5 * time.Second

// fuzzLAR renders n LAR rows spread over the continental US, with tied
// incomes and every action code, as a seed for FuzzIngestAudit.
func fuzzLAR(n int) []byte {
	var b bytes.Buffer
	b.WriteString("id,lon,lat,tract,income,minority,action\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%g,%g,%d,%d,%t,%d\n",
			i, -120+float64(i%8)*6.5, 28+float64(i%5)*4.1, i%7, 12000+1000*(i%9), i%3 == 0, 1+i%5)
	}
	return b.Bytes()
}

// FuzzIngestAudit takes arbitrary bytes through the service's ingest —
// readLAR, the same boundary every LAR route uses — then ByGrid and
// AuditContext on a tiny grid. readLAR must answer a rejected body with a
// 4xx JSON error, and an accepted body must audit without error or panic
// within ingestBound.
func FuzzIngestAudit(f *testing.F) {
	f.Add(fuzzLAR(60))
	f.Add(fuzzLAR(5))
	f.Add([]byte("id,lon,lat,tract,income,minority,action\r\n1,-100,40,0,50000,false,1\r\n2,-90,35,0,\"61000\",true,3\r\n"))
	f.Add([]byte("id,lon,lat,tract,income,minority,action\n1,-100,40,0,NaN,false,1\n"))
	f.Add([]byte("lat,lon,income,action,minority,tract,id,extra\n40,-100,1e308,1,T,0,1,x\n35,-90,-5,3,0,0,2,y\n"))
	f.Add([]byte("id,lon,lat\n1,2\n"))
	acfg := core.DefaultConfig()
	acfg.MCWorlds = 99
	acfg.MinRegionSize = 2
	acfg.Workers = 1
	grid := geo.NewGrid(geo.ContinentalUS, 4, 2)
	f.Fuzz(func(t *testing.T, body []byte) {
		start := time.Now()
		cfg := Config{MaxBodyBytes: 1 << 20, Collector: obs.NewCollector(0)}
		rec := httptest.NewRecorder()
		obsv, ok := readLAR(rec, httptest.NewRequest("POST", "/audit", bytes.NewReader(body)), cfg, "fuzz")
		if !ok {
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected body answered %d: %s", rec.Code, rec.Body.String())
			}
			return
		}
		part := partition.ByGrid(grid, obsv, partition.Options{Seed: 1})
		ctx, cancel := context.WithTimeout(context.Background(), ingestBound)
		defer cancel()
		if _, err := core.AuditContext(ctx, part, acfg); err != nil {
			t.Fatalf("audit of %d observations: %v", len(obsv), err)
		}
		if el := time.Since(start); el > ingestBound {
			t.Fatalf("ingest and audit took %v, bound %v", el, ingestBound)
		}
	})
}
