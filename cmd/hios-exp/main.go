// Command hios-exp regenerates the HIOS paper's motivating measurements
// and real-system experiments against the simulated dual-A40 platform:
//
//	Fig. 1  - sequential/parallel latency ratio of two identical
//	          convolutions over input sizes (the contention crossover);
//	Fig. 2  - transfer/compute time ratio across three dual-GPU platforms;
//	Fig. 12 - inference latency of Inception-v3 and NASNet-A over input
//	          sizes under four schedulers;
//	Fig. 13 - six-algorithm latency breakdown at small and large inputs;
//	Fig. 14 - time cost of scheduling optimization (profiling + algorithm).
//
// Examples:
//
//	hios-exp                    # every figure
//	hios-exp -fig 12 -model nasnet -sizes 331,512,1024
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	hios "github.com/shus-lab/hios"
	"github.com/shus-lab/hios/cmd/internal/cli"
)

var (
	fig       = flag.String("fig", "all", "figure to regenerate: 1, 2, 12, 13, 14 or all")
	modelName = flag.String("model", "both", "benchmark for figs 12/14: inception, nasnet or both")
	sizesFlag = flag.String("sizes", "", "comma-separated input sizes (default: paper sweep)")
)

func main() {
	flag.Parse()
	cli.Main("hios-exp", run)
}

// show prints a figure as a results table followed by a blank line.
func show(f hios.Figure) {
	f.Render(os.Stdout)
	fmt.Println()
}

func run() error {
	sizes, err := cli.Ints(*sizesFlag, "size")
	if err != nil {
		return err
	}
	for _, v := range sizes {
		if v <= 0 {
			return fmt.Errorf("bad size %d", v)
		}
	}
	// -model names a benchmark by its zoo name, the prefix of its label.
	var benchmarks []hios.Benchmark
	for _, b := range []hios.Benchmark{hios.InceptionBenchmark, hios.NASNetBenchmark} {
		if *modelName == "both" || strings.HasPrefix(string(b), *modelName+"-") {
			benchmarks = append(benchmarks, b)
		}
	}
	if len(benchmarks) == 0 {
		return fmt.Errorf("unknown model %q (want inception, nasnet or both)", *modelName)
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }
	ran := false

	if want("1") {
		ran = true
		show(hios.Fig1())
	}
	if want("2") {
		ran = true
		show(hios.Fig2())
	}
	if want("12") {
		ran = true
		for _, b := range benchmarks {
			f, err := hios.Fig12(b, sizes)
			if err != nil {
				return err
			}
			show(f)
		}
	}
	if want("13") {
		ran = true
		f, labels, err := hios.Fig13()
		if err != nil {
			return err
		}
		fmt.Printf("# scenarios: %s\n", strings.Join(labels, ", "))
		show(f)
	}
	if want("14") {
		ran = true
		for _, b := range benchmarks {
			f, err := hios.Fig14(b, sizes)
			if err != nil {
				return err
			}
			show(f)
		}
	}
	if want("ablation") {
		ran = true
		if err := runAblations(); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q (want 1, 2, 12, 13, 14, ablation or all)", *fig)
	}
	return nil
}

// runAblations prints the ablation studies of DESIGN.md: window size,
// IOS pruning, link contention, the §VI-E NCCL what-if, the optimality
// gap, the two-level cluster topology and the intra-GPU pass.
func runAblations() error {
	sim := func(seeds int) hios.SimOptions { return hios.SimOptions{Seeds: seeds, GPUs: 4} }
	studies := []struct {
		note string
		run  func() (hios.Figure, error)
	}{
		{"", func() (hios.Figure, error) { return hios.AblationWindow(sim(5)) }},
		{"", func() (hios.Figure, error) { return hios.AblationIOSPruning(sim(3)) }},
		{"# x: 0 = contention-free links (cost model), 1 = serialized NVLink bridge (testbed)",
			func() (hios.Figure, error) { return hios.AblationLinkContention(hios.InceptionBenchmark, 1024) }},
		{"# x: 0 = CUDA-aware MPI transfers, 1 = NCCL-style transfers (launch hiding)",
			func() (hios.Figure, error) { return hios.NCCLOverlap(hios.NASNetBenchmark, 331) }},
		{"", func() (hios.Figure, error) { return hios.OptimalityGap(10, 18) }},
		{"", func() (hios.Figure, error) { return hios.ClusterStudy(sim(5)) }},
		{"# x: 0 = inter-GPU only, 1 = Algorithm 2 window, 2 = per-GPU exact IOS (cross-GPU blind)",
			func() (hios.Figure, error) { return hios.AblationIntraGPU(sim(5)) }},
	}
	for _, s := range studies {
		f, err := s.run()
		if err != nil {
			return err
		}
		if s.note != "" {
			fmt.Println(s.note)
		}
		show(f)
	}
	return nil
}
