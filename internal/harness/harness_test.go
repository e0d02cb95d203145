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

// TestAllExperimentsClaims runs every registered experiment at Scale 0.1,
// seeds 1 and 2, once each. Its digest subtest requires each run to render the
// table benchmark/expected.json pins for its seed, so a moved table fails `go
// test ./...` by name; its claims subtest requires at least one claim, every
// one of which passes. The claims live in the runners, beside the notes they
// check. The pin file is read, never written: a change that is meant to move a
// table re-pins it with `go run -C benchmark . -pin`.
func TestAllExperimentsClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	const scale = 0.1
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
	seeds := []uint64{1, 2}
	for _, seed := range seeds {
		if n := len(pinned.Seeds[strconv.FormatUint(seed, 10)].Experiments); pinned.Scale != scale || n != len(All()) {
			t.Fatalf("expected.json pins %d experiments at scale %v for seed %d; want %d at %v", n, pinned.Scale, seed, len(All()), scale)
		}
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			results := make([]*Result, len(seeds))
			for i, seed := range seeds {
				results[i] = e.Run(Options{Scale: scale, Seed: seed})
			}
			t.Run("digest", func(t *testing.T) {
				for i, seed := range seeds {
					out, want := results[i].String(), pinned.Seeds[strconv.FormatUint(seed, 10)].Experiments[e.ID].Digest
					if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
						t.Errorf("seed %d: %s moved: sha256 %s, benchmark/expected.json pins %s:\n%s", seed, e.ID, got, want, out)
					}
				}
			})
			t.Run("claims", func(t *testing.T) {
				for i, seed := range seeds {
					if len(results[i].Claims) == 0 {
						t.Errorf("seed %d: %s states no claim", seed, e.ID)
					}
					for _, c := range results[i].Claims {
						if !c.Pass {
							t.Errorf("seed %d: claim %q fails: got %s", seed, c.Name, c.Got)
						}
					}
				}
			})
		})
	}
}

func TestRegistry(t *testing.T) {
	ids := []string{"fig2", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig19", "fig20", "fig21", "fig22", "fig23", "t-ablate", "t-limits", "t-phost", "t-scale", "t-trim"}
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
	// Scale 1 picks full, 0.5 medium and 0.1 small.
	for _, c := range []struct {
		scale float64
		want  int
	}{{1, 3}, {0.5, 2}, {0.1, 1}} {
		if got := (Options{Scale: c.scale}).withDefaults().pick(1, 2, 3); got != c.want {
			t.Errorf("scale %v picks %d, want %d", c.scale, got, c.want)
		}
	}
	if o := (Options{}).withDefaults(); o.Scale != 1 || o.Seed == 0 {
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
	r.Check("a is below b", 1 < 2, "%d vs %d", 1, 2)
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

// TestCheck shows a failing claim is recorded with its name and the numbers
// it was decided on, and stays out of the rendered result the digests pin.
func TestCheck(t *testing.T) {
	r := &Result{ID: "x", Title: "demo"}
	before := r.String()
	r.Check("NDP is faster", 3.5 < 2, "%.4g vs %.4g ms", 3.5, 2.0)
	want := []Claim{{Name: "NDP is faster", Pass: false, Got: "3.5 vs 2 ms"}}
	if !reflect.DeepEqual(r.Claims, want) {
		t.Errorf("claims %+v, want %+v", r.Claims, want)
	}
	if r.String() != before {
		t.Errorf("a claim changed the rendered result:\n%s", r.String())
	}
}
