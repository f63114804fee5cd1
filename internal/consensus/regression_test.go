// The before/after accounting regression for the consensus extraction:
// each sibling queue (turnmpsc, turnspmc) runs a fixed
// deterministic sequential workload and must produce byte-identical
// overrun and hazard-backlog accounting to the goldens recorded against
// the pre-refactor per-package helping loops. A refactor that changes
// how often nodes are retired, how the HP scan reclaims, or when an
// overrun is counted shows up here as a golden mismatch.
package consensus_test

import (
	"fmt"
	"strings"
	"testing"

	"turnqueue/internal/account"
	"turnqueue/internal/turnmpsc"
	"turnqueue/internal/turnspmc"
)

// fmtAccounting renders the accounting observables the refactor must
// preserve exactly: overrun counters and the full hazard-domain view
// (configuration, retire/delete totals, backlog high-water mark,
// current backlog and the paper's bound).
func fmtAccounting(s account.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "overruns=%d/%d", s.EnqOverruns, s.DeqOverruns)
	for _, h := range s.Hazard {
		fmt.Fprintf(&b, " hp[%s]{hps=%d r=%d ret=%d del=%d max=%d backlog=%d bound=%d}",
			h.Name, h.NumHPs, h.R, h.Retires, h.Deletes, h.MaxBacklog, h.Backlog, h.Bound)
	}
	return b.String()
}

const regressionThreads = 4

// Goldens recorded from the pre-refactor implementations (the
// per-package helping loops that internal/consensus replaced). Byte
// equality here is the satellite's "accounting unchanged" claim.
var accountingGoldens = map[string]string{
	"turnmpsc": "overruns=0/0 hp[nodes]{hps=1 r=0 ret=170 del=170 max=0 backlog=0 bound=8}",
	"turnspmc": "overruns=0/0 hp[nodes]{hps=3 r=0 ret=170 del=170 max=0 backlog=0 bound=16}",
}

func checkGolden(t *testing.T, name string, s account.Snapshot) {
	t.Helper()
	got := fmtAccounting(s)
	want, ok := accountingGoldens[name]
	if !ok {
		t.Fatalf("%s: no golden recorded; got %q", name, got)
	}
	if got != want {
		t.Errorf("%s accounting changed across the consensus refactor:\n got  %q\n want %q", name, got, want)
	}
}

// TestAccountingRegressionTurnMPSC drives the MPSC sibling: 100 single
// enqueues round-robin over four producer slots, ten 7-item batches,
// then the single consumer drains everything (mixing single and batch
// dequeues) and probes empty.
func TestAccountingRegressionTurnMPSC(t *testing.T) {
	q := turnmpsc.New[int](regressionThreads)
	for i := 0; i < 100; i++ {
		q.Enqueue(i%regressionThreads, i)
	}
	batch := make([]int, 7)
	for b := 0; b < 10; b++ {
		for j := range batch {
			batch[j] = 1000 + b*7 + j
		}
		q.EnqueueBatch(b%regressionThreads, batch)
	}
	got := 0
	buf := make([]int, 16)
	for {
		if got%3 == 0 {
			if _, ok := q.Dequeue(0); !ok {
				break
			}
			got++
			continue
		}
		n := q.DequeueBatch(0, buf)
		if n == 0 {
			break
		}
		got += n
	}
	if want := 100 + 10*7; got != want {
		t.Fatalf("drained %d items, want %d", got, want)
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("queue should be empty")
	}
	checkGolden(t, "turnmpsc", account.Capture("TurnMPSC", q.Runtime(), q))
}

// TestAccountingRegressionTurnSPMC drives the SPMC sibling: the single
// producer pushes 100 singles and ten 7-item batches, then four
// consumer slots drain round-robin and each probes empty once.
func TestAccountingRegressionTurnSPMC(t *testing.T) {
	q := turnspmc.New[int](regressionThreads)
	for i := 0; i < 100; i++ {
		q.Enqueue(i)
	}
	batch := make([]int, 7)
	for b := 0; b < 10; b++ {
		for j := range batch {
			batch[j] = 1000 + b*7 + j
		}
		q.EnqueueBatch(batch)
	}
	got := 0
	for {
		if _, ok := q.Dequeue(got % regressionThreads); !ok {
			break
		}
		got++
	}
	if want := 100 + 10*7; got != want {
		t.Fatalf("drained %d items, want %d", got, want)
	}
	for tid := 0; tid < regressionThreads; tid++ {
		if _, ok := q.Dequeue(tid); ok {
			t.Fatal("queue should be empty")
		}
	}
	checkGolden(t, "turnspmc", account.Capture("TurnSPMC", q.Runtime(), q))
}
