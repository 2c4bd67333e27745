// Command hios-sched optimizes an operator schedule for a DL model on a
// multi-GPU platform and prints or exports it, mirroring the paper's
// Python scheduler that "generates schedules in JSON for executing
// inference on multiple GPUs".
//
// Examples:
//
//	hios-sched -model inception -size 1024 -algo hios-lp -gpus 2
//	hios-sched -model random -ops 200 -layers 14 -deps 400 -algo hios-mr -gpus 4
//	hios-sched -model nasnet -algo hios-lp -gpus 2 -out schedule.json -trace timeline.json
package main

import (
	"flag"
	"fmt"
	"os"

	hios "github.com/shus-lab/hios"
	"github.com/shus-lab/hios/cmd/internal/cli"
)

var (
	model     = cli.ModelFlags()
	algo      = flag.String("algo", "hios-lp", "algorithm: sequential, ios, hios-lp, hios-mr, inter-gpu-lp, inter-gpu-mr")
	gpus      = flag.Int("gpus", 2, "number of GPUs")
	window    = flag.Int("window", 0, "max sliding-window size (0 = default)")
	outPath   = flag.String("out", "", "write the schedule JSON to this file")
	tracePath = flag.String("trace", "", "write a chrome://tracing timeline to this file")
	serialize = flag.Bool("serialize-links", true, "model each GPU pair's link as a shared resource in the timeline")
	evalPath  = flag.String("eval", "", "skip optimization: load this schedule JSON and evaluate it against the model")
	gantt     = flag.Bool("gantt", false, "print a text Gantt chart of the simulated execution")
	dotPath   = flag.String("dot", "", "write a Graphviz rendering of the scheduled graph to this file")
)

func main() {
	flag.Parse()
	cli.Main("hios-sched", run)
}

func run() error {
	net, err := model.Build()
	if err != nil {
		return err
	}
	g, name := net.G, net.Name
	m := hios.DefaultCostModel(g)

	var res hios.Result
	if *evalPath != "" {
		data, err := os.ReadFile(*evalPath)
		if err != nil {
			return err
		}
		s, err := hios.ImportJSON(data)
		if err != nil {
			return err
		}
		lat, err := hios.Latency(g, m, s)
		if err != nil {
			return fmt.Errorf("schedule %s does not fit model %s: %w", *evalPath, name, err)
		}
		res = hios.Result{Schedule: s, Latency: lat}
		*algo, *gpus = "(loaded from "+*evalPath+")", s.NumGPUs()
	} else if res, err = hios.Optimize(g, m, hios.Algorithm(*algo), hios.Options{GPUs: *gpus, Window: *window}); err != nil {
		return err
	}
	fmt.Printf("model:     %s (%d operators, %d dependencies)\n", name, g.NumOps(), g.NumEdges())
	fmt.Printf("algorithm: %s on %d GPU(s)\n", *algo, *gpus)
	fmt.Printf("latency:   %.4f ms (sequential: %.4f ms, speedup %.2fx)\n",
		res.Latency, g.TotalOpTime(), g.TotalOpTime()/float64(res.Latency))
	fmt.Printf("stages:    %d across %d used GPU(s)\n", res.Schedule.NumStages(), res.Schedule.UsedGPUs())

	if mem, err := hios.AnalyzeMemory(g, m, res.Schedule); err == nil && mem.MaxPeak() > 0 {
		fmt.Printf("memory:    peak per GPU:")
		for gi, b := range mem.PeakBytes {
			fmt.Printf(" GPU%d=%.1fMB", gi, float64(b)/(1<<20))
		}
		fmt.Println()
	}

	if *outPath != "" {
		data, err := hios.ExportJSON(g, res.Schedule, name, hios.Algorithm(*algo), res.Latency)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("schedule:  written to %s\n", *outPath)
	}
	if *tracePath != "" || *gantt {
		tr, err := hios.Simulate(g, m, res.Schedule, *serialize)
		if err != nil {
			return err
		}
		if *tracePath != "" {
			data, err := hios.ChromeTrace(g, tr)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
				return err
			}
			fmt.Printf("timeline:  written to %s (simulated latency %.4f ms)\n", *tracePath, tr.Latency)
		}
		if *gantt {
			fmt.Println()
			fmt.Print(hios.Gantt(g, tr, 72))
		}
	}
	return cli.WriteDOT(*dotPath, g, res.Schedule)
}
