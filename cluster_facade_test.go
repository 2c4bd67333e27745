package hios_test

import (
	"errors"
	"strings"
	"testing"

	hios "github.com/shus-lab/hios"
)

// clusterOptions builds a small synthetic cluster entirely through the
// facade: a heterogeneous three-node fleet serving one deployment with
// hand-written per-platform profiles (no scheduling, so the test stays
// fast).
func clusterOptions() hios.ClusterOptions {
	return hios.ClusterOptions{
		Fleet: hios.FleetSpec{Nodes: []hios.ClusterNodeSpec{
			{Platform: "a40", Count: 2, Replicas: 2},
			{Platform: "v100s", Count: 1, Replicas: 2},
		}},
		Deployments: []hios.ClusterDeployment{{Name: "m", Profiles: []hios.ClusterProfile{
			{Platform: "a40", Latency: 4, Period: 2, Busy: 3},
			{Platform: "a5500", Latency: 5, Period: 2.5, Busy: 3.75},
			{Platform: "v100s", Latency: 8, Period: 4, Busy: 6},
		}}},
		Tenants: []hios.ClusterTenant{
			{Name: "web", Deadline: 20, Rate: 400},
			{Name: "batch", Deadline: 100, Rate: 200},
		},
		Horizon: 400,
		Seed:    7,
	}
}

func TestClusterFacade(t *testing.T) {
	opt := clusterOptions()
	opt.Router = hios.RouterLeastLoad
	opt.Admission = hios.ClusterAdmission{RatePerSec: 800, MaxQueue: 128, ShedHopeless: true}
	opt.Autoscaler = hios.AutoscalerOptions{Enabled: true, MaxReplicas: 4}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := hios.ClusterServe(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered == 0 || a.Completed == 0 {
		t.Fatalf("degenerate report: %+v", a)
	}
	b, err := hios.ClusterServe(opt)
	if err != nil {
		t.Fatal(err)
	}
	var sa, sb strings.Builder
	if err := a.Render(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Fatal("ClusterServe is not deterministic through the facade")
	}
}

func TestClusterFacadeErrors(t *testing.T) {
	cases := []struct {
		mutate func(*hios.ClusterOptions)
		want   error
	}{
		{func(o *hios.ClusterOptions) { o.Fleet.Nodes = nil }, hios.ErrClusterNoNodes},
		{func(o *hios.ClusterOptions) { o.Fleet.Nodes[0].Platform = "h100" }, hios.ErrClusterUnknownPlatform},
		{func(o *hios.ClusterOptions) { o.Deployments = nil }, hios.ErrClusterNoDeployments},
		{func(o *hios.ClusterOptions) { o.Tenants = nil }, hios.ErrClusterNoTenants},
		{func(o *hios.ClusterOptions) { o.Router = "round-robin" }, hios.ErrUnknownRouterPolicy},
		{func(o *hios.ClusterOptions) { o.Admission.RatePerSec = -1 }, hios.ErrClusterBadAdmission},
		{func(o *hios.ClusterOptions) {
			o.Autoscaler = hios.AutoscalerOptions{Enabled: true, MinReplicas: 5, MaxReplicas: 2}
		}, hios.ErrClusterBadAutoscaler},
		{func(o *hios.ClusterOptions) { o.Horizon = -1 }, hios.ErrClusterBadHorizon},
	}
	for i, c := range cases {
		opt := clusterOptions()
		c.mutate(&opt)
		err := opt.Validate()
		if !errors.Is(err, c.want) {
			t.Errorf("case %d: Validate = %v, want errors.Is %v", i, err, c.want)
		}
		if _, err := hios.ClusterServe(opt); !errors.Is(err, c.want) {
			t.Errorf("case %d: ClusterServe err = %v, want errors.Is %v", i, err, c.want)
		}
	}
}

// TestClusterAutoscalerFilledBounds rejects autoscaler options whose
// set field crosses the default of its unset partner: a MinReplicas
// above the default MaxReplicas, and a LowDepth above the default
// HighDepth (an inverted hysteresis band).
func TestClusterAutoscalerFilledBounds(t *testing.T) {
	for _, a := range []hios.AutoscalerOptions{
		{Enabled: true, MinReplicas: 10},
		{Enabled: true, LowDepth: 5},
	} {
		opt := clusterOptions()
		opt.Autoscaler = a
		if _, err := hios.ClusterServe(opt); !errors.Is(err, hios.ErrClusterBadAutoscaler) {
			t.Errorf("%+v: ClusterServe err = %v, want errors.Is %v", a, err, hios.ErrClusterBadAutoscaler)
		}
	}
}

func TestRouterPoliciesFacade(t *testing.T) {
	ps := hios.RouterPolicies()
	if len(ps) != 4 || ps[0] != hios.RouterLeastLoad || ps[3] != hios.RouterRandom {
		t.Fatalf("RouterPolicies = %v", ps)
	}
	usage := hios.RouterPolicyUsage()
	for _, p := range ps {
		if !strings.Contains(usage, string(p)) {
			t.Errorf("RouterPolicyUsage misses %q: %s", p, usage)
		}
	}
	if u := hios.ServePolicyUsage(); !strings.Contains(u, string(hios.ServePolicies()[0])) {
		t.Errorf("ServePolicyUsage misses first policy: %s", u)
	}
}

func TestClusterPresetsFacade(t *testing.T) {
	var keys []string
	for _, p := range hios.ClusterPresets() {
		keys = append(keys, p.Key)
		if p.Cost <= 0 || p.Platform.GPUs == 0 {
			t.Errorf("preset %q has degenerate platform or cost: %+v", p.Key, p)
		}
	}
	if strings.Join(keys, ",") != "a40,a5500,v100s" {
		t.Fatalf("preset keys = %v", keys)
	}
}

// TestSpecParsersFacade pins the shared flag grammar of hios-serve and
// hios-cluster: Parse(String(v)) round-trips through the facade parsers.
func TestSpecParsersFacade(t *testing.T) {
	tp := hios.TenantSpec()
	tenant := hios.ServeTenant{Name: "web", Deadline: 20, Rate: 300}
	s := tp.String(tenant)
	if s != "name=web,deadline=20,rate=300" {
		t.Fatalf("tenant String = %q", s)
	}
	back, err := tp.Parse(s)
	if err != nil || back != tenant {
		t.Fatalf("tenant round trip = %+v, %v", back, err)
	}

	np := hios.NodeSpecParser()
	node := hios.ClusterNodeSpec{Platform: "a40", Count: 2, Replicas: 3}
	back2, err := np.Parse(np.String(node))
	if err != nil || back2 != node {
		t.Fatalf("node round trip = %+v, %v", back2, err)
	}
}
