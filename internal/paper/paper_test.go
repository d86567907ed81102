package paper

import (
	"strings"
	"sync"
	"testing"

	"bgpsim/internal/runner"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablations", "calib", "colltune", "facility", "faults", "fig1", "fig2", "fig3",
		"fig4", "fig5", "fig6", "fig7", "fig8", "green500", "io", "petaflop", "profile",
		"table1", "table2", "table3", "top500"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry = %v, want %v", got, want)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fig99"); err == nil {
		t.Error("expected error")
	}
	e, err := Get("table1")
	if err != nil || e.ID != "table1" {
		t.Errorf("Get(table1) = %+v, %v", e, err)
	}
}

func TestGreen500BlueGenesOnTop(t *testing.T) {
	e, err := Get("green500")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("expected 5 systems, got %d", len(rows))
	}
	// The paper's intro: the BlueGene family owns the top of the
	// Green500. Ranks 1-2 must be the two BlueGenes.
	top := rows[0][1] + " " + rows[1][1]
	if !(strings.Contains(top, "BG/P") && strings.Contains(top, "BG/L")) {
		t.Errorf("top two = %q, want the BlueGenes", top)
	}
}

func TestAllExperimentsRunReduced(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(Options{})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				s := tb.String()
				if len(tb.Rows) == 0 {
					t.Errorf("%s: empty table %q", e.ID, tb.Title)
				}
				if !strings.Contains(s, "-") {
					t.Errorf("%s: suspicious render", e.ID)
				}
			}
		})
	}
}

// serialClaims verifies every paper claim once at -j 1 and memoises the
// results, so TestAllClaimsVerify and TestVerifyClaimsOrderStable share
// one serial sweep per test binary.
var serialClaims struct {
	once sync.Once
	res  []ClaimResult
}

func serialClaimResults() []ClaimResult {
	serialClaims.once.Do(func() {
		defer runner.SetWorkers(0)
		runner.SetWorkers(1)
		serialClaims.res = VerifyClaims(Options{})
	})
	return serialClaims.res
}

// TestAllClaimsVerify requires every paper claim to pass at -j 1, with
// the results in registration order.
func TestAllClaimsVerify(t *testing.T) {
	if raceEnabled {
		t.Skip("claim sweep is minutes-long under -race; the non-race run covers it and TestAllExperimentsRunReduced covers the concurrent paths")
	}
	res := serialClaimResults()
	if len(res) != len(claims) {
		t.Fatalf("got %d results for %d claims", len(res), len(claims))
	}
	for i, r := range res {
		if r.Claim.ID != claims[i].ID {
			t.Errorf("result %d is %q, want %q", i, r.Claim.ID, claims[i].ID)
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Claim.ID, r.Err)
		} else if !r.Pass {
			t.Errorf("%s failed: %s", r.Claim.ID, r.Detail)
		}
	}
}
