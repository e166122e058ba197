package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit. A workload that bypasses a layer reports it as 0. The
// mapping of each to the end-to-end metric it should move, and on
// which workload, is in layers.json.
var layerMetrics = []struct{ name, unit string }{
	{"lai.resolve_ms", "ms"},
	{"topo.paths_ms", "ms"},
	{"topo.paths", "count"},
	{"core.fecs_ms", "ms"},
	{"core.fecs", "count"},
	{"core.classes", "count"},
	{"check.preprocess_ms", "ms"},
	{"check.decide_ms", "ms"},
	{"check.witness_ms", "ms"},
	{"check.solved_ratio", "ratio"},
	{"check.violations", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"pset.decided", "count"},
	{"pset.bailouts", "count"},
	{"fix.solve_ms", "ms"},
	{"fix.simplify_ms", "ms"},
	{"fix.verify_ms", "ms"},
	{"fix.neighborhoods", "count"},
	{"fix.actions", "count"},
	{"generate.derive_aec_ms", "ms"},
	{"generate.solve_ms", "ms"},
	{"generate.synthesize_ms", "ms"},
	{"generate.verify_ms", "ms"},
	{"generate.aecs", "count"},
	{"generate.rules_kept_ratio", "ratio"},
	{"serve.engine_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.rejected", "count"},
	{"loadgen.late_ms", "ms"},
	{"cache.hit_ratio", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// emptyLayers returns every per-layer metric at 0.
func emptyLayers() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, l := range layerMetrics {
		out[l.name] = metric{0, l.unit}
	}
	return out
}

// setLayers fills in measured values, keeping each metric's unit.
func setLayers(layers map[string]metric, vals map[string]float64) {
	for k, v := range vals {
		m, ok := layers[k]
		if !ok {
			panic("perfbench: unlisted layer metric " + k)
		}
		m.Value = v
		layers[k] = m
	}
}

// medianCounts is the per-key median of per-operation counts.
func medianCounts(ops []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ops {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, xs := range vals {
		out[k] = median(xs)
	}
	return out
}

// coverageLine reports how much of each traced operation's time (root
// spans named root) the layer spans beneath it account for.
func coverageLine(spans []span, self map[string]map[int]time.Duration, root string) string {
	var ratios, glue []float64
	for _, s := range spans {
		if s.name != root || s.parent != -1 {
			continue
		}
		total := s.end - s.start
		if total <= 0 {
			continue
		}
		own := self[root][s.op]
		ratios = append(ratios, float64(total-own)/float64(total))
		glue = append(glue, ms(own))
	}
	return fmt.Sprintf("layer spans cover %.1f%% of traced %s time (median over %d ops); unattributed self time %.3f ms",
		100*median(ratios), root, len(ratios), median(glue))
}

// expectedPath is where a workload's pinned answers for a seed live.
func expectedPath(cfg config) string {
	return filepath.Join("perfbench", "expected", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

type expectedFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Answers  map[string]string `json:"answers"`
}

func readExpected(cfg config) (*expectedFile, error) {
	data, err := os.ReadFile(expectedPath(cfg))
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", expectedPath(cfg), err)
	}
	return &f, nil
}

// compareExpected checks a run's answers against the pinned ones for
// its seed. A seed without a pinned file is checked by the reference
// semantics alone, which the message says.
func compareExpected(cfg config, answers map[string]string) (bool, string) {
	f, err := readExpected(cfg)
	if os.IsNotExist(err) {
		return true, fmt.Sprintf("no pinned answers for seed %d; outputs checked by the reference semantics only", cfg.seed)
	}
	if err != nil {
		return false, err.Error()
	}
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	unpinned := 0
	for _, k := range keys {
		want, ok := f.Answers[k]
		if !ok {
			unpinned++
			continue
		}
		if want != answers[k] {
			return false, fmt.Sprintf("input %s answered %q, pinned %q", k, answers[k], want)
		}
	}
	if unpinned > 0 {
		return true, fmt.Sprintf("%d of %d answers have no pin", unpinned, len(keys))
	}
	return true, ""
}

// pinAnswers computes the workload's answers for the seed. With no
// pinned file it writes one; with one it checks that the answers
// repeat exactly.
func pinAnswers(cfg config) error {
	answers, err := workloadPins[cfg.workload](cfg)
	if err != nil {
		return err
	}
	f, err := readExpected(cfg)
	if err == nil {
		if len(f.Answers) != len(answers) {
			return fmt.Errorf("%d answers, pinned %d", len(answers), len(f.Answers))
		}
		for k, v := range answers {
			if f.Answers[k] != v {
				return fmt.Errorf("input %s answered %q, pinned %q", k, v, f.Answers[k])
			}
		}
		fmt.Printf("%s: %d answers repeat the pin\n", expectedPath(cfg), len(answers))
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(expectedFile{cfg.workload, cfg.seed, answers}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectedPath(cfg), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: pinned %d answers\n", expectedPath(cfg), len(answers))
	return nil
}
