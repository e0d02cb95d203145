package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ndp/internal/stats"
)

// TestAllExperimentsSmoke runs every registered experiment at the smallest
// scale and checks it produces non-empty tables, and that the rendered
// result is the one benchmark/expected.json pins for this scale and seed —
// so a moved table fails `go test ./...` by name, not only the benchmark
// driver. The pin file is read, never written: a change that is meant to
// move a table re-pins it with `go run -C benchmark . -pin`.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	const scale, seed = 0.1, 2
	blob, err := os.ReadFile("../../benchmark/expected.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned struct {
		Scale float64 `json:"figures_scale"`
		Seeds map[string]struct {
			Experiments map[string]struct{ Digest string }
		}
	}
	if err := json.Unmarshal(blob, &pinned); err != nil {
		t.Fatal(err)
	}
	digests := pinned.Seeds[strconv.Itoa(seed)].Experiments
	if pinned.Scale != scale || len(digests) != len(All()) {
		t.Fatalf("expected.json pins %d experiments at scale %v for seed %d; want %d at %v",
			len(digests), pinned.Scale, seed, len(All()), scale)
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(Options{Scale: scale, Seed: seed})
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for i, tab := range res.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %d (%s) has no rows", i, res.Labels[i])
				}
			}
			out := res.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("rendered result missing id:\n%s", out)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != digests[e.ID].Digest {
				t.Errorf("%s moved: sha256 %s, benchmark/expected.json pins %s for seed %d:\n%s",
					e.ID, got, digests[e.ID].Digest, seed, out)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	ids := []string{"fig2", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig19", "fig20",
		"fig21", "fig22", "fig23", "t-ablate", "t-limits", "t-phost", "t-scale", "t-trim"}
	for _, id := range ids {
		if Get(id) == nil {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(ids) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(ids))
	}
}

func TestOptionsPick(t *testing.T) {
	o := Options{Scale: 1}.withDefaults()
	if o.pick(1, 2, 3) != 3 {
		t.Error("scale 1 should pick full")
	}
	o = Options{Scale: 0.5}.withDefaults()
	if o.pick(1, 2, 3) != 2 {
		t.Error("scale 0.5 should pick medium")
	}
	o = Options{Scale: 0.1}.withDefaults()
	if o.pick(1, 2, 3) != 1 {
		t.Error("scale 0.1 should pick small")
	}
	o = Options{}.withDefaults()
	if o.Scale != 1 || o.Seed == 0 {
		t.Errorf("defaults: %+v", o)
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "demo"}
	r.Notef("answer is %d", 42)
	if len(r.Notes) != 1 || !strings.Contains(r.Notes[0], "42") {
		t.Errorf("notes: %v", r.Notes)
	}
	out := r.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, strconv.Itoa(42)) {
		t.Errorf("render: %s", out)
	}
}

// TestResultJSONRoundTrip checks experiment results survive
// marshal/unmarshal intact — the machine-readable contract of ndpsim -json.
func TestResultJSONRoundTrip(t *testing.T) {
	r := &Result{ID: "figX", Title: "round-trip fixture"}
	tb := &stats.Table{Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	r.AddTable("label", tb)
	r.Notef("note %d", 7)
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r, back) {
		t.Errorf("result changed over JSON round-trip:\nbefore %+v\nafter  %+v", *r, back)
	}
	if back.String() != r.String() {
		t.Errorf("rendered result differs after round-trip")
	}
}

// TestFig14PaperShape asserts the shape the experiment's own note states,
// at Scale 0.1: under a permutation NDP fills the fabric (>= 92 %
// utilization, worst flow >= 9 Gb/s), multipath MPTCP comes next, and the
// single-path transports pay for ECMP collisions — NDP >= MPTCP > DCTCP >
// DCQCN. Digests pin that a table did not move; this pins that it is where
// the paper puts it.
func TestFig14PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	for seed := uint64(1); seed <= 2; seed++ {
		tab := Get("fig14").Run(Options{Scale: 0.1, Seed: seed}).Tables[0]
		util, worst := map[string]float64{}, map[string]float64{}
		for _, row := range tab.Rows {
			u, err1 := strconv.ParseFloat(row[1], 64)
			w, err2 := strconv.ParseFloat(row[2], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: unparsable row %v", seed, row)
			}
			util[row[0]], worst[row[0]] = u, w
		}
		if util["NDP"] < 92 || worst["NDP"] < 9 {
			t.Errorf("seed %d: NDP util %.1f%%, worst flow %.2f Gb/s; want >= 92%% and >= 9", seed, util["NDP"], worst["NDP"])
		}
		if !(util["NDP"] >= util["MPTCP"] && util["MPTCP"] > util["DCTCP"] && util["DCTCP"] > util["DCQCN"]) {
			t.Errorf("seed %d: utilization NDP %.1f, MPTCP %.1f, DCTCP %.1f, DCQCN %.1f; want NDP >= MPTCP > DCTCP > DCQCN",
				seed, util["NDP"], util["MPTCP"], util["DCTCP"], util["DCQCN"])
		}
	}
}

// TestFig9PaperShape asserts what fig9's note states, at Scale 0.1, for the
// 250 KB and 1,000 KB rows: a 7:1 NDP incast completes within 5 % of the
// serialization optimum with p90 within 5 % of the median (measured
// 1.014-1.021 and 1.00-1.01), and TCP's p90 is at least one 200 ms MinRTO
// (measured 600-1,202 ms). Two parts of the note are not asserted, and README
// "Experiments" lists them as known gaps: the 10 KB row (its optimum is bare
// serialization, 56 us, and leaves out the path delay that dominates at this
// size, so NDP reads 22-28 % over it; TCP loses nothing there, so no RTO),
// and "TCP ~4x slower" (three to six RTOs against a 1.4-5.6 ms optimum are
// 180-430x here).
func TestFig9PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	for seed := uint64(1); seed <= 2; seed++ {
		tab := Get("fig9").Run(Options{Scale: 0.1, Seed: seed}).Tables[0]
		checked := 0
		for _, row := range tab.Rows {
			if row[0] != "250" && row[0] != "1000" {
				continue
			}
			checked++
			var v [5]float64 // optimal, NDP median and p90, TCP median and p90
			for i := range v {
				var err error
				if v[i], err = strconv.ParseFloat(row[i+1], 64); err != nil {
					t.Fatalf("seed %d: unparsable row %v", seed, row)
				}
			}
			optimal, ndpMed, ndpP90, tcpP90 := v[0], v[1], v[2], v[4]
			if ndpMed > 1.05*optimal || ndpP90 > 1.05*ndpMed {
				t.Errorf("seed %d, %s KB: NDP median %.4g ms, p90 %.4g ms against an optimum of %.4g ms; want both within 5%%",
					seed, row[0], ndpMed, ndpP90, optimal)
			}
			if tcpP90 < 200 {
				t.Errorf("seed %d, %s KB: TCP p90 %.4g ms, want at least one 200 ms MinRTO", seed, row[0], tcpP90)
			}
		}
		if checked != 2 {
			t.Fatalf("seed %d: rows %v, want a 250 KB and a 1000 KB row", seed, tab.Rows)
		}
	}
}

// TestTrimLocalityPaperShape asserts what t-trim's note states, at Scale
// 0.1: with sender-permuted paths almost nothing is trimmed on an uplink
// (paper ~0.01 %; <= 0.05 % here), with per-packet ECMP at the switches a
// few percent are (paper ~2.4 %; between 1 % and 5 %), and source load
// balancing also buys utilization.
func TestTrimLocalityPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	for seed := uint64(1); seed <= 2; seed++ {
		tab := Get("t-trim").Run(Options{Scale: 0.1, Seed: seed}).Tables[0]
		uplink, util := map[string]float64{}, map[string]float64{}
		for _, row := range tab.Rows {
			up, err1 := strconv.ParseFloat(row[1], 64)
			u, err2 := strconv.ParseFloat(row[3], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: unparsable row %v", seed, row)
			}
			uplink[row[0]], util[row[0]] = up, u
		}
		const source, atSwitch = "sender-permuted paths", "switch per-packet ECMP"
		if len(tab.Rows) != 2 || util[source] == 0 || util[atSwitch] == 0 {
			t.Fatalf("seed %d: rows %v, want %q and %q", seed, tab.Rows, source, atSwitch)
		}
		if uplink[source] > 0.05 {
			t.Errorf("seed %d: %.3f%% uplink trims with source load balancing, want <= 0.05%%", seed, uplink[source])
		}
		if uplink[atSwitch] < 1 || uplink[atSwitch] > 5 {
			t.Errorf("seed %d: %.3f%% uplink trims with switch load balancing, want between 1%% and 5%%", seed, uplink[atSwitch])
		}
		if util[source] <= util[atSwitch] {
			t.Errorf("seed %d: utilization %.2f%% with source load balancing, %.2f%% with switch; want source above switch", seed, util[source], util[atSwitch])
		}
	}
}
