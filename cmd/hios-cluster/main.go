// Command hios-cluster simulates a cluster-scale serving control plane:
// a heterogeneous fleet of multi-GPU nodes serving one scheduled model
// behind an admission-controlled gateway, with pluggable router policies
// and an optional replica autoscaler (DESIGN.md §14). The deployment's
// per-platform serving profiles are derived by scheduling the model with
// HIOS on each platform preset, exactly as hios-serve does for one node.
//
// Examples:
//
//	hios-cluster -nodes 6 -router least-load -load 0.95
//	hios-cluster -node platform=a40,count=2,replicas=2 -node platform=v100s,count=1 -router weighted
//	hios-cluster -tenant name=web,deadline=20,rate=800 -autoscale -scale-max 6
//	hios-cluster -sweep -seeds 4 -sizes 2,4,8 -json   # figure Serve2
package main

import (
	"flag"
	"fmt"

	hios "github.com/shus-lab/hios"
	"github.com/shus-lab/hios/cmd/internal/cli"
)

var (
	modelName = flag.String("model", "squeezenet", "model: inception, nasnet, squeezenet or resnet50")
	size      = flag.Int("size", 0, "input image size (0 = model default)")
	algo      = flag.String("algo", "hios-lp", "scheduling algorithm per platform: sequential, ios, hios-lp, hios-mr, inter-gpu-lp, inter-gpu-mr")
	gpus      = flag.Int("gpus", 2, "GPUs per pipeline replica")
	window    = flag.Int("window", 0, "max sliding-window size (0 = default)")

	nodes    = flag.Int("nodes", 4, "fleet size when no -node is given; node i cycles the platform presets")
	replicas = flag.Int("replicas", 2, "initial replicas per (node, deployment) pool for -nodes fleets")
	router   = flag.String("router", "", "router policy: "+hios.RouterPolicyUsage()+" (empty = least-load)")
	load     = flag.Float64("load", 0.9, "default tenants: offered load as a fraction of fleet capacity (ignored when -tenant is given)")
	horizon  = flag.Float64("horizon", 0, "arrival horizon in ms (0 = default)")
	seed     = flag.Int64("seed", 1, "seed of the arrival processes")
	tenants  = cli.TenantFlag()

	admitRate  = flag.Float64("admit-rate", 0, "gateway token-bucket admission rate in req/s (0 = unlimited)")
	admitBurst = flag.Int("admit-burst", 0, "gateway token-bucket burst (0 = default when -admit-rate is set)")
	maxQueue   = flag.Int("max-queue", 0, "shed arrivals beyond this cluster-wide queue depth (0 = unbounded)")
	shedLate   = flag.Bool("shed-hopeless", false, "shed requests at dispatch once their deadline is unreachable")

	autoscale     = flag.Bool("autoscale", false, "enable the per-pool replica autoscaler")
	scaleMin      = flag.Int("scale-min", 0, "autoscaler: min replicas per pool (0 = default)")
	scaleMax      = flag.Int("scale-max", 0, "autoscaler: max replicas per pool (0 = default)")
	scaleInterval = flag.Float64("scale-interval", 0, "autoscaler: control interval in ms (0 = default)")

	queuePath = flag.String("queue", "", "write the queue-depth timeline CSV to this file")

	sweepFlag = flag.Bool("sweep", false, "run the attainment-vs-fleet-size sweep (figure Serve2) instead of one simulation")
	seeds     = flag.Int("seeds", 0, "sweep: arrival seeds averaged per data point (0 = default)")
	sizesFlag = flag.String("sizes", "", "sweep: comma-separated fleet sizes (empty = default)")
	requests  = flag.Int("requests", 0, "sweep: target arrivals per cell (0 = default)")
	workers   = flag.Int("workers", 0, "sweep: worker pool width (0 = GOMAXPROCS; output is byte-identical at any width)")

	asJSON = flag.Bool("json", false, "emit JSON instead of text")

	fleetNodes []hios.ClusterNodeSpec
)

func main() {
	flag.Func("node", `repeatable node-group spec, e.g. "platform=a40,count=2,replicas=2"; platforms: a40, a5500, v100s`,
		hios.NodeSpecParser().AppendTo(&fleetNodes))
	flag.Parse()
	body := run
	if *sweepFlag {
		body = sweep
	}
	cli.Main("hios-cluster", body)
}

// sweep renders the attainment-vs-fleet-size figure (Serve2).
func sweep() error {
	sizes, err := cli.Ints(*sizesFlag, "fleet size")
	if err != nil {
		return err
	}
	opt := hios.FleetSweepOptions{
		Seeds:     *seeds,
		Sizes:     sizes,
		Requests:  *requests,
		Load:      *load,
		Replicas:  *replicas,
		GPUs:      *gpus,
		Window:    *window,
		InputSize: *size,
		Workers:   *workers,
	}
	if *router != "" {
		opt.Routers = []hios.RouterPolicy{hios.RouterPolicy(*router)}
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	f, err := hios.AttainmentVsFleet(opt)
	if err != nil {
		return err
	}
	return cli.Figure(f, *asJSON)
}

// run schedules the model per platform, serves it on the fleet and
// reports.
func run() error {
	dep, err := hios.FleetDeployment(*modelName, *size, hios.Algorithm(*algo), hios.Options{GPUs: *gpus, Window: *window})
	if err != nil {
		return err
	}
	if len(fleetNodes) == 0 {
		fleetNodes = hios.PresetFleet(*nodes, *replicas).Nodes
	}
	opt := hios.ClusterOptions{
		Fleet:       hios.FleetSpec{Nodes: fleetNodes},
		Deployments: []hios.ClusterDeployment{dep},
		Router:      hios.RouterPolicy(*router),
		Admission: hios.ClusterAdmission{
			RatePerSec:   *admitRate,
			Burst:        *admitBurst,
			MaxQueue:     *maxQueue,
			ShedHopeless: *shedLate,
		},
		Autoscaler: hios.AutoscalerOptions{
			Enabled:     *autoscale,
			Interval:    hios.Millis(*scaleInterval),
			MinReplicas: *scaleMin,
			MaxReplicas: *scaleMax,
		},
		Horizon: hios.Millis(*horizon),
		Seed:    *seed,
		Tenants: *tenants,
	}
	if len(opt.Tenants) == 0 {
		opt.Tenants = hios.TenantMix(dep.MinLatency(), *load*opt.Capacity(0))
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	rep, err := hios.ClusterServe(opt)
	if err != nil {
		return err
	}
	header := fmt.Sprintf("model:     %s, %s per platform, %d GPU(s) per replica\n", dep.Name, *algo, *gpus) +
		fmt.Sprintf("fleet:     %d node(s), capacity %.1f req/s at initial replicas\n", opt.Fleet.NumNodes(), opt.Capacity(0))
	if err := cli.Report(rep, *asJSON, header); err != nil {
		return err
	}
	return cli.WriteQueue(*queuePath, rep)
}
