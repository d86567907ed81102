package paper

import (
	"strings"
	"testing"

	"bgpsim/internal/runner"
	"bgpsim/internal/stats"
)

// renderAll runs the experiment and renders its tables exactly as
// cmd/paper writes them to stdout.
func renderAll(t *testing.T, id string) string {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		if tb.Chart != "" {
			b.WriteString("\n" + tb.Chart)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestWorkerCountInvariance pins the -j contract: for sweep-heavy
// experiments the rendered output at 1 worker and at 8 workers must be
// byte-identical, because every simulation is deterministic and the
// runner commits results in input order.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep comparison")
	}
	defer runner.SetWorkers(0)
	ids := []string{"fig2", "fig3", "ablations", "fig8"}
	if raceEnabled {
		// One experiment exercises the concurrent commit path fully;
		// breadth belongs to the faster non-race run.
		ids = ids[:1]
	}
	for _, id := range ids {
		runner.SetWorkers(1)
		serial := renderAll(t, id)
		runner.SetWorkers(8)
		parallel := renderAll(t, id)
		if serial != parallel {
			t.Errorf("%s: output differs between -j 1 and -j 8\n-- j1 --\n%s\n-- j8 --\n%s",
				id, serial, parallel)
		}
	}
}

// TestVerifyClaimsOrderStable verifies every paper claim at -j 8 and
// requires the same results, in the same order, as the shared -j 1
// sweep that TestAllClaimsVerify checks for pass.
func TestVerifyClaimsOrderStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every claim twice")
	}
	if raceEnabled {
		t.Skip("claim sweep is minutes-long under -race; Sweep concurrency is covered by TestWorkerCountInvariance")
	}
	b := serialClaimResults()
	if len(b) != len(claims) {
		t.Fatalf("got %d results for %d claims", len(b), len(claims))
	}
	defer runner.SetWorkers(0)
	runner.SetWorkers(8)
	a := VerifyClaims(Options{})
	if len(a) != len(b) {
		t.Fatalf("got %d results at -j 8 and %d at -j 1", len(a), len(b))
	}
	for i := range a {
		if a[i].Claim.ID != claims[i].ID {
			t.Errorf("result %d is %q, want %q", i, a[i].Claim.ID, claims[i].ID)
		}
		if a[i].Pass != b[i].Pass || a[i].Detail != b[i].Detail {
			t.Errorf("claim %q differs between -j 8 and -j 1: %+v vs %+v",
				a[i].Claim.ID, a[i], b[i])
		}
	}
}

// TestJobsCommitInOrder exercises the paper fan-out helper directly.
func TestJobsCommitInOrder(t *testing.T) {
	f := stats.NewFigure("t", "x", "y")
	s := f.AddSeries("s")
	var jobs []job
	for i := 0; i < 50; i++ {
		i := i
		jobs = append(jobs, job{
			run:    func() (any, error) { return float64(i), nil },
			commit: func(v any) { s.Add(float64(i), v.(float64)) },
		})
	}
	if err := runJobs(jobs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if s.X[i] != float64(i) || s.Y[i] != float64(i) {
			t.Fatalf("point %d = (%g, %g), want (%d, %d)", i, s.X[i], s.Y[i], i, i)
		}
	}
}
