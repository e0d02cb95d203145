package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"ndp"
	"ndp/scenario"
)

// expected.json pins the outputs of the current tree for seeds 1 and 2. It
// is compiled in, so the benchmark finds it from any working directory;
// `-pin` rewrites the file beside the sources.
//
//go:embed expected.json
var expectedJSON []byte

// output is the fingerprint of one checked output: the SHA-256 of the whole
// and a short hash of each part, in order — the top-level fields of a
// Metrics document, or the lines of a rendered experiment. The parts let a
// mismatch name the first field or table row that differs without the pin
// file carrying megabytes of samples.
type output struct {
	Digest string `json:"digest"`
	Parts  string `json:"parts"` // space-separated label=shorthash
}

// expectedSeed is the pinned outputs of one seed.
type expectedSeed struct {
	Specs       map[string]output `json:"specs"`
	Experiments map[string]output `json:"experiments"`
}

// expectedFile is the layout of expected.json.
type expectedFile struct {
	Note  string                  `json:"note"`
	Scale float64                 `json:"figures_scale"`
	Seeds map[string]expectedSeed `json:"seeds"`
}

func loadExpected() (expectedFile, error) {
	var ef expectedFile
	if err := json.Unmarshal(expectedJSON, &ef); err != nil {
		return ef, fmt.Errorf("expected.json: %w", err)
	}
	if ef.Scale != figuresScale {
		return ef, fmt.Errorf("expected.json pins experiments at Scale %v, the benchmark runs them at %v: run -pin", ef.Scale, figuresScale)
	}
	return ef, nil
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:4])
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// metricsOutput fingerprints a Metrics document: the digest is of
// json.Marshal(m), the parts are its top-level fields in declaration order.
func metricsOutput(m *scenario.Metrics) (output, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return output{}, err
	}
	out := output{Digest: digestOf(b)}
	var parts []string
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil { // opening brace
		return output{}, err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return output{}, err
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return output{}, err
		}
		parts = append(parts, fmt.Sprintf("%v=%s", key, shortHash(raw)))
	}
	out.Parts = strings.Join(parts, " ")
	return out, nil
}

// resultOutput fingerprints a rendered experiment: the digest is of
// Result.String(), the parts are its lines (table rows and notes).
func resultOutput(r *ndp.Result) output {
	text := r.String()
	var parts []string
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		parts = append(parts, fmt.Sprintf("line%d=%s", i+1, shortHash([]byte(line))))
	}
	return output{Digest: digestOf([]byte(text)), Parts: strings.Join(parts, " ")}
}

// firstDifference names the first part of got that differs from want.
func firstDifference(got, want output) string {
	g, w := strings.Fields(got.Parts), strings.Fields(want.Parts)
	label := func(part string) string {
		l, _, _ := strings.Cut(part, "=")
		return l
	}
	for i, p := range g {
		if i >= len(w) {
			return fmt.Sprintf("%s is extra (expected %d parts)", label(p), len(w))
		}
		if p != w[i] {
			return fmt.Sprintf("first difference at %s (expected part %s)", label(p), label(w[i]))
		}
	}
	if len(w) > len(g) {
		return fmt.Sprintf("%s is missing", label(w[len(g)]))
	}
	return "parts equal, digests differ"
}

// pinSeeds are the seeds expected.json carries.
var pinSeeds = []uint64{1, 2}

// pin regenerates expected.json in dir from the current tree.
func pin(dir string, sz sizes) error {
	ef := expectedFile{
		Note: "Pinned outputs of the benchmark workloads; regenerate with `go run -C benchmark . -pin` " +
			"only when a change is meant to alter simulated results.",
		Scale: figuresScale,
		Seeds: map[string]expectedSeed{},
	}
	for _, seed := range pinSeeds {
		es := expectedSeed{Specs: map[string]output{}, Experiments: map[string]output{}}
		for _, w := range []string{"perm-ndp", "perm-ndp-shards2", "rpc-churn"} {
			spec, err := specFor(w, sz, seed)
			if err != nil {
				return err
			}
			m, _, err := scenario.RunWithStats(spec)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			out, err := metricsOutput(m)
			if err != nil {
				return err
			}
			es.Specs[w] = out
			fmt.Fprintf(os.Stderr, "pinned %s seed %d: %s\n", w, seed, out.Digest[:16])
		}
		if es.Specs["perm-ndp"].Digest != es.Specs["perm-ndp-shards2"].Digest {
			return fmt.Errorf("seed %d: perm-ndp-shards2 does not reproduce perm-ndp", seed)
		}
		for _, id := range sz.Experiments {
			res, err := ndp.Run(id, ndp.Options{Scale: figuresScale, Seed: seed, Workers: 1})
			if err != nil {
				return err
			}
			es.Experiments[id] = resultOutput(res)
		}
		fmt.Fprintf(os.Stderr, "pinned %d experiments seed %d\n", len(sz.Experiments), seed)
		ef.Seeds[fmt.Sprint(seed)] = es
	}
	b, err := json.MarshalIndent(ef, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(dir+"/expected.json", append(b, '\n'), 0o644)
}
