package hios_test

// Serving goldens: the single-node serving simulator, the fleet
// simulator and the two serving figures must not change a single byte
// of output under refactoring. Each golden file holds one run's
// rendered report, its queue-depth CSV and its JSON encoding (or, for a
// figure, its rendered table).
//
// Regenerate (only when an intentional behavioural change is made) with:
//
//	HIOS_UPDATE_GOLDENS=1 go test -run TestGoldenServing .

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	hios "github.com/shus-lab/hios"
)

// checkServingGolden compares got against testdata/goldens/serving/name,
// or rewrites the file under HIOS_UPDATE_GOLDENS.
func checkServingGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "goldens", "serving", name)
	if os.Getenv("HIOS_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with HIOS_UPDATE_GOLDENS=1): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from golden %s (run with HIOS_UPDATE_GOLDENS=1 only if the change is intentional)", path)
	}
}

// reportBytes concatenates a report's three serializations.
func reportBytes(t *testing.T, render, queue func(*bytes.Buffer) error, rep any) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("== render ==\n")
	if err := render(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("== queue ==\n")
	if err := queue(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("== json ==\n")
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// goldenServeOptions is a two-model deployment under open-loop overload
// and a closed-loop tenant, so queues form, deadlines are missed and
// edf-shed sheds.
func goldenServeOptions(p hios.ServePolicy) hios.ServeOptions {
	return hios.ServeOptions{
		Models: []hios.ServeModel{
			{Name: "a", Replicas: 2, Latency: 4, Period: 2, GPUBusy: []hios.Millis{1.5, 1.25}},
			{Name: "b", Latency: 6, Period: 3, GPUBusy: []hios.Millis{2, 2.5}},
		},
		Tenants: []hios.ServeTenant{
			{Name: "web", Model: 0, Deadline: 8, Rate: 900},
			{Name: "batch", Model: 0, Deadline: 30, Rate: 300},
			{Name: "inter", Model: 1, Deadline: 10, Clients: 4, Think: 2},
		},
		Policy:         p,
		Horizon:        150,
		Seed:           11,
		RecordRequests: true,
	}
}

func TestGoldenServingServe(t *testing.T) {
	for _, p := range hios.ServePolicies() {
		t.Run(string(p), func(t *testing.T) {
			rep, err := hios.Serve(goldenServeOptions(p))
			if err != nil {
				t.Fatal(err)
			}
			render := func(b *bytes.Buffer) error { return rep.Render(b) }
			queue := func(b *bytes.Buffer) error { return rep.WriteQueue(b) }
			checkServingGolden(t, "serve_"+string(p)+".txt", reportBytes(t, render, queue, rep))
		})
	}
}

// goldenClusterOptions overloads the facade test fleet with gateway
// admission on, adding a closed-loop tenant; autoscale turns on a fast
// autoscaler so scale events land inside the horizon.
func goldenClusterOptions(r hios.RouterPolicy, autoscale bool) hios.ClusterOptions {
	opt := clusterOptions()
	opt.Tenants = []hios.ClusterTenant{
		{Name: "web", Deadline: 20, Rate: 1500},
		{Name: "batch", Deadline: 100, Rate: 900},
		{Name: "inter", Deadline: 15, Clients: 6, Think: 3},
	}
	opt.Router = r
	opt.Horizon = 300
	opt.Admission = hios.ClusterAdmission{RatePerSec: 2200, Burst: 32, MaxQueue: 96, ShedHopeless: true}
	if autoscale {
		opt.Autoscaler = hios.AutoscalerOptions{Enabled: true, Interval: 10, Window: 4, Cooldown: 20, MaxReplicas: 4}
	}
	return opt
}

func TestGoldenServingCluster(t *testing.T) {
	for _, r := range hios.RouterPolicies() {
		for _, auto := range []bool{false, true} {
			name := "cluster_" + string(r)
			if auto {
				name += "_autoscale"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := hios.ClusterServe(goldenClusterOptions(r, auto))
				if err != nil {
					t.Fatal(err)
				}
				render := func(b *bytes.Buffer) error { return rep.Render(b) }
				queue := func(b *bytes.Buffer) error { return rep.WriteQueue(b) }
				checkServingGolden(t, name+".txt", reportBytes(t, render, queue, rep))
			})
		}
	}
}

// TestGoldenServingFigures pins the Serve1 and Serve2 figures at the
// sizes the experiments tests run them.
func TestGoldenServingFigures(t *testing.T) {
	serve1, err := hios.AttainmentVsLoad(hios.ServeSweepOptions{Ops: 80, Seeds: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkServingGolden(t, "fig_serve1.txt", []byte(serve1.String()))
	serve2, err := hios.AttainmentVsFleet(hios.FleetSweepOptions{
		Seeds: 2, Sizes: []int{2, 4}, Requests: 4000, InputSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkServingGolden(t, "fig_serve2.txt", []byte(serve2.String()))
}
