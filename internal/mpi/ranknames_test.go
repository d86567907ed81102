package mpi

import (
	"fmt"
	"strings"
	"testing"

	"bgpsim/internal/machine"
	"bgpsim/internal/network"
)

// TestRankNameReports pins the text of the reports that name rank
// processes. Ranks are spawned without a rendered name; a deadlock or
// panic report renders "rank N" when it is built, and must read byte
// for byte as it did when every rank carried its name string. The
// expected texts were captured from that earlier implementation.
func TestRankNameReports(t *testing.T) {
	const deadlock = "sim: deadlock: last event at t=0.000002000s, 3 process(es) blocked: " +
		"rank 10 (MPI_Wait(recv), blocked since t=0.000002000s); " +
		"rank 3 (MPI_Wait(recv), blocked since t=0.000000000s); " +
		"rank 7 (MPI_Wait(recv), blocked since t=0.000000000s)"
	const panicked = `sim: process "rank 12" panicked: rank 12 gave up`
	cases := []struct {
		name string
		prog func(*Rank)
		want string
	}{
		{"deadlock", func(r *Rank) {
			switch r.ID() {
			case 3:
				r.Recv(10, 9)
			case 7:
				r.Recv(AnySource, 1)
			case 10:
				r.Advance(2000000)
				r.Recv(3, 7)
			}
		}, deadlock},
		{"panic", func(r *Rank) {
			if r.ID() == 12 {
				r.Advance(1000)
				panic(fmt.Sprintf("rank %d gave up", r.ID()))
			}
			r.Recv(AnySource, 0)
		}, panicked},
	}
	for _, c := range cases {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				_, err := Execute(Config{Machine: machine.Get(machine.BGP), Nodes: 4, Mode: machine.VN,
					Fidelity: network.Analytic, Shards: shards}, c.prog)
				if err == nil {
					t.Fatal("run succeeded, want an error")
				}
				got, _, _ := strings.Cut(err.Error(), "\n") // a panic report ends in its stack
				if got != c.want {
					t.Errorf("report\n got %q\nwant %q", got, c.want)
				}
			})
		}
	}
}
