// Command hios-serve simulates an online, deadline-aware, multi-tenant
// serving deployment of a scheduled model: it optimizes a schedule
// exactly like hios-sched, derives the deployment's pipeline latency and
// admission period, and then replays seeded stochastic arrivals against
// a dispatch policy, reporting SLO attainment, goodput, tail latencies
// and per-GPU utilization (DESIGN.md §9).
//
// Examples:
//
//	hios-serve -model inception -algo hios-lp -gpus 2 -policy edf
//	hios-serve -model nasnet -replicas 2 -policy edf-shed -load 1.2 -queue depth.csv
//	hios-serve -tenant name=web,deadline=20,rate=300 -tenant name=batch,deadline=200,clients=4,think=5
//	hios-serve -sweep -seeds 4 -json     # attainment vs load, scheduler x policy
package main

import (
	"flag"
	"fmt"
	"os"

	hios "github.com/shus-lab/hios"
	"github.com/shus-lab/hios/cmd/internal/cli"
)

var (
	model  = cli.ModelFlags()
	algo   = flag.String("algo", "hios-lp", "algorithm: sequential, ios, hios-lp, hios-mr, inter-gpu-lp, inter-gpu-mr")
	gpus   = flag.Int("gpus", 2, "number of GPUs per pipeline replica")
	window = flag.Int("window", 0, "max sliding-window size (0 = default)")

	replicas    = flag.Int("replicas", 1, "identical pipeline replicas of the deployment")
	policy      = flag.String("policy", "edf", "dispatch policy: "+hios.ServePolicyUsage())
	horizon     = flag.Float64("horizon", 0, "arrival horizon in ms (0 = default)")
	arrivalSeed = flag.Int64("arrival-seed", 1, "seed of the arrival processes")
	load        = flag.Float64("load", 0.7, "default tenants: offered load as a fraction of deployment capacity (ignored when -tenant is given)")
	tenants     = cli.TenantFlag()
	queuePath   = flag.String("queue", "", "write the queue-depth timeline CSV to this file")
	ganttFlag   = flag.Bool("gantt", false, "print a text Gantt chart of one request's schedule")
	dotPath     = flag.String("dot", "", "write a Graphviz rendering of the scheduled graph to this file")

	sweepFlag = flag.Bool("sweep", false, "run the attainment-vs-load sweep (scheduler x policy) instead of one simulation")
	seeds     = flag.Int("seeds", 0, "sweep: arrival seeds averaged per data point (0 = default)")
	budget    = flag.Int("budget", 0, "sweep: total GPU budget per deployment (0 = default)")
	workers   = flag.Int("workers", 0, "sweep: worker pool width (0 = GOMAXPROCS; output is byte-identical at any width)")
	loadsFlag = flag.String("loads", "", "sweep: comma-separated offered-load fractions (empty = default)")

	asJSON = flag.Bool("json", false, "emit JSON instead of text")
)

func main() {
	flag.Parse()
	body := run
	if *sweepFlag {
		body = sweep
	}
	cli.Main("hios-serve", body)
}

// sweep renders the attainment-vs-load figure (Serve1).
func sweep() error {
	loads, err := cli.Floats(*loadsFlag, "load")
	if err != nil {
		return err
	}
	opt := hios.ServeSweepOptions{
		Seeds:     *seeds,
		GPUs:      *gpus,
		GPUBudget: *budget,
		Window:    *window,
		Workers:   *workers,
		Loads:     loads,
		Horizon:   hios.Millis(*horizon),
		Ops:       *model.Ops,
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	f, err := hios.AttainmentVsLoad(opt)
	if err != nil {
		return err
	}
	return cli.Figure(f, *asJSON)
}

// run schedules the model, serves it and reports.
func run() error {
	net, err := model.Build()
	if err != nil {
		return err
	}
	g := net.G
	m := hios.DefaultCostModel(g)
	res, err := hios.Optimize(g, m, hios.Algorithm(*algo), hios.Options{GPUs: *gpus, Window: *window})
	if err != nil {
		return err
	}
	dep, err := hios.NewServeModel(net.Name, g, m, res.Schedule)
	if err != nil {
		return err
	}
	dep.Replicas = *replicas
	if len(*tenants) == 0 {
		*tenants = hios.TenantMix(dep.Latency, *load*dep.Capacity())
	}
	opt := hios.ServeOptions{
		Models:  []hios.ServeModel{dep},
		Tenants: *tenants,
		Policy:  hios.ServePolicy(*policy),
		Horizon: hios.Millis(*horizon),
		Seed:    *arrivalSeed,
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	rep, err := hios.Serve(opt)
	if err != nil {
		return err
	}
	header := fmt.Sprintf("model:     %s (%d operators), %s on %d GPU(s)\n", net.Name, g.NumOps(), *algo, *gpus) +
		fmt.Sprintf("pipeline:  latency %.4f ms, period %.4f ms, %d replica(s), capacity %.1f req/s\n",
			dep.Latency, dep.Period, dep.Replicas, dep.Capacity())
	if err := cli.Report(rep, *asJSON, header); err != nil {
		return err
	}
	if err := cli.WriteQueue(*queuePath, rep); err != nil {
		return err
	}
	if *ganttFlag {
		tr, err := hios.Simulate(g, m, res.Schedule, false)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := hios.WriteGantt(os.Stdout, g, tr, 72); err != nil {
			return err
		}
	}
	return cli.WriteDOT(*dotPath, g, res.Schedule)
}
