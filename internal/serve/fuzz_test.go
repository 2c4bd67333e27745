package serve

import (
	"testing"

	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/units"
)

// conserves checks the properties every serving report must satisfy:
// each offered request either completed or was shed, attainment is a
// fraction, the per-tenant rows sum to the totals, and the queue
// timeline never steps back in time.
func conserves(t *testing.T, entry string, offered, completed, shed int, attainment float64, tenants []TenantReport, queue []QueuePoint) {
	t.Helper()
	if offered != completed+shed {
		t.Errorf("%s: offered %d != completed %d + shed %d", entry, offered, completed, shed)
	}
	if !(attainment >= 0 && attainment <= 1) {
		t.Errorf("%s: attainment %g outside [0, 1]", entry, attainment)
	}
	sum := 0
	for _, tr := range tenants {
		sum += tr.Offered
		if tr.Offered != tr.Completed+tr.Shed {
			t.Errorf("%s: tenant %s offered %d != completed %d + shed %d", entry, tr.Name, tr.Offered, tr.Completed, tr.Shed)
		}
	}
	if sum != offered {
		t.Errorf("%s: tenant offered sum %d != offered %d", entry, sum, offered)
	}
	for i := 1; i < len(queue); i++ {
		if queue[i].T < queue[i-1].T {
			t.Errorf("%s: queue timeline steps back at point %d: %g -> %g", entry, i, float64(queue[i-1].T), float64(queue[i].T))
		}
	}
}

// FuzzServingConservation drives both entry points of the serving
// engine, serve.Run on one node and cluster.Run on a fleet, from a
// fuzzed policy, router, replica count, open-loop rate, closed-loop
// client count, horizon and seed. Each input is either rejected by
// Validate (and then by Run) or produces reports that satisfy
// conserves; a panic fails the target by itself.
//
// policy%4 picks fifo, edf, edf-shed or the default, and policy >= 128
// an unknown policy; router%5 picks a router or an unknown one, and
// router >= 128 turns the autoscaler on. Valid inputs whose request
// count would exceed a few thousand are skipped to bound each run.
func FuzzServingConservation(f *testing.F) {
	f.Add(uint8(1), uint8(0), int8(2), 800.0, int8(0), 200.0, int64(1))
	f.Add(uint8(2), uint8(130), int8(1), 2500.0, int8(4), 300.0, int64(7))
	f.Add(uint8(0), uint8(3), int8(-1), 100.0, int8(2), 50.0, int64(3))
	f.Fuzz(func(t *testing.T, policy, router uint8, replicas int8, rate float64, clients int8, horizon float64, seed int64) {
		h := horizon
		if h == 0 { // zero selects the 1000 ms default
			h = 1000
		}
		if rate*h > 5e6 || float64(clients)*h > 5e4 || h > 5e3 {
			t.Skip("request count above the per-input budget")
		}
		var tenants []Tenant
		if rate != 0 {
			tenants = append(tenants, Tenant{Name: "open", Deadline: 10, Rate: rate})
		}
		if clients != 0 {
			tenants = append(tenants, Tenant{Name: "closed", Deadline: 20, Clients: int(clients), Think: 1})
		}

		sopt := Options{
			Models:  []Model{{Name: "m", Replicas: int(replicas), Latency: 4, Period: 2, GPUBusy: []units.Millis{1.5, 1}}},
			Tenants: tenants,
			Policy:  [...]Policy{FIFO, EDF, EDFShed, ""}[policy%4],
			Horizon: units.Millis(horizon),
			Seed:    seed,
		}
		if policy >= 128 {
			sopt.Policy = "bogus"
		}
		if err := sopt.Validate(); err != nil {
			if _, rerr := Run(sopt); rerr == nil {
				t.Fatalf("serve: Validate rejected (%v) but Run accepted %+v", err, sopt)
			}
		} else {
			rep, err := Run(sopt)
			if err != nil {
				t.Fatalf("serve: Run on validated options: %v", err)
			}
			conserves(t, "serve", rep.Offered, rep.Completed, rep.Shed, rep.Attainment, rep.Tenants, rep.Queue)
		}

		copt := cluster.Options{
			Fleet: cluster.FleetSpec{Nodes: []cluster.NodeSpec{
				{Platform: "a40", Count: 2, Replicas: int(replicas)},
				{Platform: "v100s", Replicas: int(replicas)},
			}},
			Deployments: []cluster.Deployment{{Name: "m", Profiles: []cluster.Profile{
				{Platform: "a40", Latency: 4, Period: 2, Busy: 2.5},
				{Platform: "v100s", Latency: 8, Period: 4, Busy: 5},
			}}},
			Tenants:   tenants,
			Router:    append(cluster.RouterPolicies(), "bogus")[router%5],
			Admission: cluster.Admission{RatePerSec: 3000, MaxQueue: 64, ShedHopeless: policy%4 == 2},
			Horizon:   units.Millis(horizon),
			Seed:      seed,
		}
		if router >= 128 {
			copt.Autoscaler = cluster.AutoscalerOptions{Enabled: true, Interval: 5, Window: 2, Cooldown: 10}
		}
		if err := copt.Validate(); err != nil {
			if _, rerr := cluster.Run(copt); rerr == nil {
				t.Fatalf("cluster: Validate rejected (%v) but Run accepted %+v", err, copt)
			}
			return
		}
		rep, err := cluster.Run(copt)
		if err != nil {
			t.Fatalf("cluster: Run on validated options: %v", err)
		}
		conserves(t, "cluster", rep.Offered, rep.Completed, rep.Shed, rep.Attainment, rep.Tenants, rep.Queue)
	})
}
