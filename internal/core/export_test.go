package core

import (
	"context"
	"reflect"

	"lcsf/internal/partition"
)

// PreparedFootprint builds the audit runner over p's eligible regions under
// cfg, through AuditContext's setup path, and reports on its similarity
// scorer: the capacity of the largest slice anywhere in its state, and
// whether every position's sample is its region's IncomeSample itself
// rather than a copy.
func PreparedFootprint(p *partition.Partitioning, cfg Config) (largest int, aliased bool, err error) {
	run, err := newAuditRunner(context.Background(), cfg, p, p.NonEmpty(cfg.MinRegionSize), nil, 1, nil)
	if err != nil {
		return 0, false, err
	}
	aliased = len(run.sim.soa.samples) == len(run.regions)
	for i, r := range run.regions {
		sample := r.IncomeSample()
		if aliased && len(sample) > 0 {
			s := run.sim.soa.samples[i]
			aliased = len(s) == len(sample) && &s[0] == &sample[0]
		}
	}
	return largestSlice(reflect.ValueOf(run.sim)), aliased, nil
}

// largestSlice returns the largest slice capacity reachable from v through
// struct fields, interfaces and slice elements.
func largestSlice(v reflect.Value) int {
	largest := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			largest = max(largest, largestSlice(v.Field(i)))
		}
	case reflect.Interface:
		if !v.IsNil() {
			largest = largestSlice(v.Elem())
		}
	case reflect.Slice:
		largest = v.Cap()
		switch v.Type().Elem().Kind() {
		case reflect.Struct, reflect.Slice, reflect.Interface:
			for i := 0; i < v.Len(); i++ {
				largest = max(largest, largestSlice(v.Index(i)))
			}
		}
	}
	return largest
}
