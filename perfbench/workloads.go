package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/shus-lab/hios"
	"github.com/shus-lab/hios/internal/stats"
)

// Section names: every workload has a scheduling section and a serving
// section, because every end-to-end metric is reported on every
// workload. The workload's focus section takes the time left after the
// other section has run its minimum passes.
const (
	sectionSched = "sched"
	sectionServe = "serve"
)

// workload is one named input set.
type workload struct {
	name string
	// focus is the section that fills the run's time budget.
	focus string
	// cold empties the IOS block cache before each scheduling pass, so
	// that repeated passes redo the same cold work.
	cold bool
	// requests builds one scheduling pass.
	requests func(b *bench, seed int64, zoo []zooNet) ([]schedReq, error)
}

var workloads = []workload{
	{name: "paper-dags", focus: sectionSched, cold: true, requests: paperDAGs},
	{name: "cnn-zoo", focus: sectionSched, requests: cnnZoo},
	{name: "fleet-serving", focus: sectionServe, requests: fleetPlanning},
}

// Pricing selects how a scheduling request's cost model is built.
type pricing int

const (
	// priceDefault is DefaultCostModel, the path hios-sched takes.
	priceDefault pricing = iota
	// priceCached is CachedCostModel, the fleet-profile path.
	priceCached
	// priceProfiled wraps DefaultCostModel in a fresh Profiled table per
	// algorithm call, the Fig. 14 path.
	priceProfiled
)

func (p pricing) String() string {
	return [...]string{"default", "cached", "profiled"}[p]
}

// schedReq is one scheduling request: a graph, how to price it, and the
// GPU count of the multi-GPU schedulers.
type schedReq struct {
	name    string
	g       *hios.Graph
	net     *hios.Net // nil for random DAGs
	pricing pricing
	gpus    int
}

// zooNet is one built CNN on one fleet platform.
type zooNet struct {
	model    string
	net      *hios.Net
	platform string
}

// inputs is everything a run's timed phase consumes, built in setup.
type inputs struct {
	sched   []schedReq
	cold    bool
	serve   []hios.ServeOptions
	cluster []hios.ClusterOptions
	// labels names the serving runs: serve runs, then cluster runs.
	labels []string
}

// setup builds one run's inputs from the seed: the CNN zoo on every
// fleet platform, the serving deployments (HIOS-LP schedules turned into
// serving profiles), the workload's scheduling requests, and the
// serving options. It starts from empty process-wide caches, so every
// repetition does the same work.
func (b *bench) setup(w workload, seed int64) (*inputs, error) {
	hios.ResetSharedBlockCache()
	hios.ResetSharedKernelCache()
	zoo, err := b.buildZoo(seed)
	if err != nil {
		return nil, err
	}
	deps, err := deployments(zoo)
	if err != nil {
		return nil, err
	}
	reqs, err := w.requests(b, seed, zoo)
	if err != nil {
		return nil, err
	}
	in := &inputs{sched: reqs, cold: w.cold}
	in.serve, err = serveOptions(stats.MixSeed(seed, 2), deps, &in.labels)
	if err != nil {
		return nil, err
	}
	in.cluster = clusterOptions(stats.MixSeed(seed, 3), deps, &in.labels)
	return in, nil
}

// zooModels lists the CNN zoo in build order.
var zooModels = []string{"inception-v3", "nasnet-a", "squeezenet", "resnet50", "randwire"}

// buildZoo builds every zoo model on every fleet platform. RandWire's
// wiring is drawn from the seed.
func (b *bench) buildZoo(seed int64) ([]zooNet, error) {
	rw := hios.DefaultRandWire()
	rw.Seed = stats.MixSeed(seed, 1)
	var zoo []zooNet
	for _, p := range hios.ClusterPresets() {
		for _, name := range zooModels {
			sp := b.tr.begin("model.build")
			var net *hios.Net
			var err error
			switch name {
			case "inception-v3":
				net = hios.InceptionV3(p.Platform, 299)
			case "nasnet-a":
				net = hios.NASNetA(p.Platform, 331)
			case "squeezenet":
				net = hios.SqueezeNet(p.Platform, 224)
			case "resnet50":
				net = hios.ResNet50(p.Platform, 224)
			default:
				net, err = hios.RandWireNet(p.Platform, rw)
			}
			b.tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("build %s on %s: %w", name, p.Key, err)
			}
			zoo = append(zoo, zooNet{model: name, net: net, platform: p.Key})
		}
	}
	return zoo, nil
}

// warmBlockCache schedules every zoo net with IOS under DefaultCostModel
// once, so later requests replay their blocks from the shared cache.
func warmBlockCache(zoo []zooNet) error {
	for _, z := range zoo {
		if _, err := hios.Optimize(z.net.G, hios.DefaultCostModel(z.net.G), hios.IOS, hios.Options{}); err != nil {
			return fmt.Errorf("warm %s: %w", z.net.Name, err)
		}
	}
	return nil
}

// gridPoint is one point on the paper's §V-A axes (Figs. 7, 8, 10, 11).
type gridPoint struct {
	ops, layers int
	p           float64
	gpus        int
}

// paperGrid varies one axis at a time around the paper's defaults (200
// operators, 14 layers, p = 0.8, 4 GPUs); the default point appears once,
// on the GPU axis.
func paperGrid() []gridPoint {
	def := gridPoint{ops: 200, layers: 14, p: 0.8, gpus: 4}
	var pts []gridPoint
	for _, m := range []int{2, 4, 6, 8, 10, 12} {
		pt := def
		pt.gpus = m
		pts = append(pts, pt)
	}
	for _, n := range []int{100, 150, 250, 300, 350, 400} {
		pt := def
		pt.ops = n
		pts = append(pts, pt)
	}
	for _, l := range []int{6, 10, 18, 22} {
		pt := def
		pt.layers = l
		pts = append(pts, pt)
	}
	for _, p := range []float64{0.4, 0.6, 1.0, 1.2} {
		pt := def
		pt.p = p
		pts = append(pts, pt)
	}
	return pts
}

// paperInstances is how many random graphs each grid point gets:
// 20 points x 5 = 100 requests, the percentile floor.
const paperInstances = 5

// paperDAGs builds fresh random layered DAGs, one per request, so no two
// requests share a block and every IOS solve is cold.
func paperDAGs(b *bench, seed int64, _ []zooNet) ([]schedReq, error) {
	pts := paperGrid()
	reqs := make([]schedReq, 0, len(pts)*paperInstances)
	for i := range len(pts) * paperInstances {
		pt := pts[i%len(pts)]
		cfg := hios.RandomModelDefaults()
		cfg.Ops, cfg.Deps, cfg.Layers, cfg.CommRatio = pt.ops, 2*pt.ops, pt.layers, pt.p
		cfg.Seed = stats.MixSeed(seed, 100+i)
		sp := b.tr.begin("randdag.generate")
		g, err := hios.RandomModel(cfg)
		b.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("random DAG %d: %w", i, err)
		}
		name := fmt.Sprintf("dag-%d-ops%d-l%d-p%.1f-m%d", i, pt.ops, pt.layers, pt.p, pt.gpus)
		reqs = append(reqs, schedReq{name: name, g: g, pricing: priceDefault, gpus: pt.gpus})
	}
	return reqs, nil
}

// zooRepeats is how often each zoo net is requested per pass: 15 nets x
// 7 = 105 requests, above the percentile floor of 100.
const zooRepeats = 7

// zooPricing is the pricing of each repeat of a net in cnn-zoo: three
// default, two cached, two profiled.
var zooPricing = [zooRepeats]pricing{priceDefault, priceCached, priceProfiled, priceDefault, priceCached, priceProfiled, priceDefault}

// cnnZoo requests every zoo net seven times under the three pricings, in
// a seeded order, with the block cache warmed in setup.
func cnnZoo(_ *bench, seed int64, zoo []zooNet) ([]schedReq, error) {
	return zooRequests(seed, zoo, zooPricing[:])
}

// fleetPlanning is fleet-serving's scheduling section: the same requests
// as cnn-zoo, all under DefaultCostModel with a warm block cache, as a
// fleet operator re-plans its deployments.
func fleetPlanning(_ *bench, seed int64, zoo []zooNet) ([]schedReq, error) {
	var prices [zooRepeats]pricing
	return zooRequests(seed, zoo, prices[:])
}

// zooRequests requests every zoo net once per price, in a seeded order,
// after warming the block cache.
func zooRequests(seed int64, zoo []zooNet, prices []pricing) ([]schedReq, error) {
	if err := warmBlockCache(zoo); err != nil {
		return nil, err
	}
	var reqs []schedReq
	for _, z := range zoo {
		for _, p := range prices {
			reqs = append(reqs, schedReq{
				name:    fmt.Sprintf("%s@%s/%s", z.net.Name, z.platform, p),
				g:       z.net.G,
				net:     z.net,
				pricing: p,
				gpus:    2,
			})
		}
	}
	rng := rand.New(rand.NewSource(stats.MixSeed(seed, 4)))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// deployment is one served model: its serving model on each fleet
// platform, in preset order.
type deployment struct {
	name   string
	models []hios.ServeModel
	keys   []string
}

// servedModels are the deployed models, by zoo name.
var servedModels = []string{"squeezenet", "resnet50"}

// deployments schedules each served model on each platform with HIOS-LP
// under CachedCostModel and derives its serving model.
func deployments(zoo []zooNet) ([]deployment, error) {
	var deps []deployment
	for _, name := range servedModels {
		d := deployment{name: name}
		for _, z := range zoo {
			if z.model != name {
				continue
			}
			m, err := hios.CachedCostModel(z.net)
			if err != nil {
				return nil, err
			}
			res, err := hios.Optimize(z.net.G, m, hios.HIOSLP, hios.Options{GPUs: 2})
			if err != nil {
				return nil, fmt.Errorf("deploy %s on %s: %w", name, z.platform, err)
			}
			sm, err := hios.NewServeModel(name, z.net.G, m, res.Schedule)
			if err != nil {
				return nil, fmt.Errorf("deploy %s on %s: %w", name, z.platform, err)
			}
			sm.Replicas = 2
			d.models = append(d.models, sm)
			d.keys = append(d.keys, z.platform)
		}
		deps = append(deps, d)
	}
	return deps, nil
}

// loads are the offered loads, as fractions of capacity.
var loads = []float64{0.5, 0.95, 1.5}

// Simulated arrivals per serving run, which set each run's horizon.
const (
	serveRequests   = 16000
	clusterRequests = 8000
)

// serveOptions builds the single-node runs: FIFO, EDF and EDF-shed at
// each load, serving an open-loop tenant on the first deployment and a
// closed-loop tenant on the second, on the first platform.
func serveOptions(seed int64, deps []deployment, labels *[]string) ([]hios.ServeOptions, error) {
	web, batch := deps[0].models[0], deps[1].models[0]
	think := batch.Latency.Scale(4)
	var out []hios.ServeOptions
	for _, pol := range hios.ServePolicies() {
		for _, load := range loads {
			rate := load * web.Capacity()
			clients := max(1, int(math.Round(load*batch.Capacity()*float64(batch.Latency+think)/1e3)))
			offered := rate + float64(clients)*1e3/float64(batch.Latency+think)
			o := hios.ServeOptions{
				Models: []hios.ServeModel{web, batch},
				Tenants: []hios.ServeTenant{
					{Name: "web", Model: 0, Deadline: web.Latency.Scale(4), Rate: rate},
					{Name: "batch", Model: 1, Deadline: batch.Latency.Scale(12), Clients: clients, Think: think},
				},
				Policy:  pol,
				Horizon: hios.Millis(serveRequests * 1e3 / offered),
				Seed:    stats.MixSeed(seed, len(out)),
			}
			if err := o.Validate(); err != nil {
				return nil, err
			}
			out = append(out, o)
			*labels = append(*labels, fmt.Sprintf("serve/%s/load%g", pol, load))
		}
	}
	return out, nil
}

// fleetNodes is the heterogeneous fleet: the platform presets cycled
// over six nodes of two replicas each.
const fleetNodes = 6

// autoscaler scales the autoscaler's time constants to the served
// models' millisecond latencies, so that it acts within a run's horizon.
func autoscaler(on bool) hios.AutoscalerOptions {
	return hios.AutoscalerOptions{Enabled: on, Interval: 2, Window: 4, Cooldown: 10, MaxReplicas: 4}
}

// clusterOptions builds the fleet runs: every router, the autoscaler off
// and on, at each load, with gateway admission on.
func clusterOptions(seed int64, deps []deployment, labels *[]string) []hios.ClusterOptions {
	var nodes []hios.ClusterNodeSpec
	for i := range fleetNodes {
		nodes = append(nodes, hios.ClusterNodeSpec{Platform: deps[0].keys[i%len(deps[0].keys)], Count: 1, Replicas: 2})
	}
	var cdeps []hios.ClusterDeployment
	var minLat []hios.Millis
	for _, d := range deps {
		cd := hios.ClusterDeployment{Name: d.name}
		lat := d.models[0].Latency
		for i, m := range d.models {
			cd.Profiles = append(cd.Profiles, hios.ClusterProfileOf(d.keys[i], m))
			lat = min(lat, m.Latency)
		}
		cdeps = append(cdeps, cd)
		minLat = append(minLat, lat)
	}
	var out []hios.ClusterOptions
	for _, router := range hios.RouterPolicies() {
		for _, scale := range []bool{false, true} {
			for _, load := range loads {
				o := hios.ClusterOptions{
					Fleet:       hios.FleetSpec{Nodes: nodes},
					Deployments: cdeps,
					Router:      router,
					Autoscaler:  autoscaler(scale),
					Seed:        stats.MixSeed(seed, len(out)),
				}
				c0, c1 := o.Capacity(0), o.Capacity(1)
				o.Tenants = []hios.ClusterTenant{
					{Name: "interactive", Model: 0, Deadline: minLat[0].Scale(4), Rate: load * c0},
					{Name: "batch", Model: 1, Deadline: minLat[1].Scale(12), Rate: load * c1},
				}
				o.Admission = hios.ClusterAdmission{RatePerSec: 1.2 * (c0 + c1), Burst: 64, MaxQueue: 512, ShedHopeless: true}
				o.Horizon = hios.Millis(clusterRequests * 1e3 / (load * (c0 + c1)))
				out = append(out, o)
				*labels = append(*labels, fmt.Sprintf("cluster/%s/autoscale=%t/load%g", router, scale, load))
			}
		}
	}
	return out
}
