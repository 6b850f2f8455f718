package experiments

import (
	"strings"
	"testing"

	"crfs/internal/cluster"
	"crfs/internal/fuse"
)

func TestIDsAndUnknown(t *testing.T) {
	ids := IDs()
	if len(ids) < 13 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	sorted := SortedIDs()
	if len(sorted) != len(ids) {
		t.Error("SortedIDs lost entries")
	}
}

// TestRestartRowMeasured: the restart row is the difference of two
// simulated restarts, not a constant. It is positive — every read crosses
// FUSE in request-sized pieces — and it grows when the requests shrink
// from big_writes' 128 KiB to one page.
func TestRestartRowMeasured(t *testing.T) {
	row := Restart().Rows[0]
	if row.Measured <= 0 {
		t.Fatalf("restart overhead of CRFS = %v s, want the cost of the FUSE read path (> 0)", row.Measured)
	}
	overhead := func(maxRead int) float64 {
		crfs := restartConfig(true)
		crfs.CRFS.FUSE.MaxWrite = maxRead
		return cluster.RunRestart(crfs).RestartTime - cluster.RunRestart(restartConfig(false)).RestartTime
	}
	if got := overhead(fuse.BigWritesMaxWrite); got != row.Measured {
		t.Errorf("the row reads %v s, its runs %v s", row.Measured, got)
	}
	if small := overhead(fuse.DefaultMaxWrite); small <= row.Measured {
		t.Errorf("restart overhead with 4 KiB requests %v s, with 128 KiB %v s: want more for smaller requests", small, row.Measured)
	}
}

func TestTable2PureModel(t *testing.T) {
	rep := Table2()
	if len(rep.Rows) != 9 {
		t.Fatalf("table2 rows = %d, want 9", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Paper <= 0 || r.Measured <= 0 {
			t.Errorf("row %s has non-positive values: %+v", r.Name, r)
		}
		ratio := r.Measured / r.Paper
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("row %s deviates from Table II: ratio %.2f", r.Name, ratio)
		}
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	rep := Table1()
	// Qualitative invariants of Table I: tiny writes cost almost no
	// time; the medium bucket dominates; large writes cost far less
	// than their data share.
	byName := map[string]float64{}
	for _, r := range rep.Rows {
		byName[r.Name] = r.Measured
	}
	if byName["0-64 %time"] > 5 {
		t.Errorf("tiny writes cost %.1f%% of time", byName["0-64 %time"])
	}
	if byName["4K-16K %time"] < 25 {
		t.Errorf("medium writes cost only %.1f%% of time", byName["4K-16K %time"])
	}
	if byName[">1M %time"] > 40 {
		t.Errorf("large writes cost %.1f%%, should be far below data share (57%%)", byName[">1M %time"])
	}
}

func TestFig11CRFSFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// The robust part of Fig. 11 in this model: every CRFS process
	// finishes its writes well before the slowest native process. The
	// paper's additional convergence claim (CRFS spread collapses) is
	// only partially reproduced; see EXPERIMENTS.md.
	rep := Fig11()
	var natSpread, crfsSpread float64
	for _, r := range rep.Rows {
		if strings.HasPrefix(r.Name, "native completion") {
			natSpread = r.Measured
		}
		if strings.HasPrefix(r.Name, "crfs completion") {
			crfsSpread = r.Measured
		}
	}
	if crfsSpread > 2*natSpread {
		t.Errorf("CRFS spread (%.2fs) far above native (%.2fs)", crfsSpread, natSpread)
	}
}

func TestFig5OrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	// Bigger chunks must not lose bandwidth at the 16 MB pool.
	small := fig5Point(16<<20, 128<<10, 64<<20)
	large := fig5Point(16<<20, 4<<20, 64<<20)
	if large < small*0.95 {
		t.Errorf("4MB chunks (%.0f MB/s) slower than 128K (%.0f MB/s)", large, small)
	}
	if small < 300 || large > 3000 {
		t.Errorf("bandwidths out of plausible range: %.0f / %.0f MB/s", small, large)
	}
}

func TestReportFormat(t *testing.T) {
	rep := Report{ID: "x", Title: "t", Rows: []Row{{Name: "a", Paper: -1, Measured: 2, Unit: "s"}}, Text: "detail\n"}
	out := rep.Format()
	for _, want := range []string{"=== x", "a", "detail", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}
