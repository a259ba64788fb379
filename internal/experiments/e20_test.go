package experiments_test

import (
	"testing"

	"repro/internal/experiments"
)

func TestE20(t *testing.T) {
	tbl, err := experiments.E20DAGCollapse()
	checkTable(t, tbl, err)
	res := tbl.Result()
	if res.Workers != 1 || res.Kernel != "dag" {
		t.Errorf("E20 provenance = workers %d kernel %q, want 1/dag", res.Workers, res.Kernel)
	}
}

func TestResultDefaultsProvenance(t *testing.T) {
	tbl := &experiments.Table{ID: "X", Verdict: "PASS"}
	res := tbl.Result()
	if res.Workers != 1 || res.Kernel != "tree" {
		t.Errorf("defaulted provenance = workers %d kernel %q, want 1/tree", res.Workers, res.Kernel)
	}
}
