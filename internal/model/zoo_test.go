package model

import (
	"strings"
	"testing"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/randdag"
)

// TestZooDefaults: every zoo name builds at its default size, a figure
// label names the same net, and the fixed architectures match their
// direct builders.
func TestZooDefaults(t *testing.T) {
	p := gpu.DualA40()
	for _, c := range []struct{ name, net string }{
		{"inception", "inception-v3-299"},
		{"inception-v3", "inception-v3-299"},
		{"nasnet", "nasnet-a-331"},
		{"squeezenet", "squeezenet-224"},
		{"resnet50", "resnet50-224"},
		{"randwire", "randwire-224-n16-s1"},
		{"random", "random-200-14-400"},
	} {
		n, err := Build(p, c.name, 0, randdag.Paper())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n.Name != c.net {
			t.Errorf("%s: net %q, want %q", c.name, n.Name, c.net)
		}
	}
	direct := Must(InceptionV3(p.Dev, p.Link, 512))
	viaZoo, err := Build(p, "inception", 512, randdag.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.G.NumOps() != viaZoo.G.NumOps() || direct.G.TotalOpTime() != viaZoo.G.TotalOpTime() { //lint:floatexact same builder, same cached weights
		t.Fatal("zoo inception differs from InceptionV3")
	}
	if DefaultSize("nasnet-a") != 331 || DefaultSize("random") != 0 || DefaultSize("bogus") != 0 {
		t.Fatal("DefaultSize disagrees with the zoo table")
	}
}

// TestZooRejectsBadInput: an input size an architecture cannot shrink
// to, a negative size, an unknown name and an invalid random config are
// errors, never panics — one case per zoo model.
func TestZooRejectsBadInput(t *testing.T) {
	p := gpu.DualA40()
	cases := []struct {
		name    string
		size    int
		random  randdag.Config
		wantSub string
	}{
		{"inception", 8, randdag.Config{}, "does not fit input"},
		{"nasnet", 1, randdag.Config{}, "does not fit input"},
		{"squeezenet", 1, randdag.Config{}, "does not fit input"},
		// Padded all the way down, these two shrink to a 1x1 input.
		{"resnet50", -1, randdag.Config{}, "non-positive shape"},
		{"randwire", -1, randdag.Config{Seed: 1}, "needs positive input size"},
		{"random", 0, randdag.Config{Ops: 10, Layers: 2, Deps: -1}, "negative dependency count"},
		{"inception", -3, randdag.Config{}, "non-positive shape"},
		{"vgg", 0, randdag.Config{}, `unknown model "vgg" (want inception, nasnet, squeezenet, resnet50, randwire or random)`},
	}
	for _, c := range cases {
		_, err := Build(p, c.name, c.size, c.random)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Build(%s, size %d) error = %v, want one containing %q", c.name, c.size, err, c.wantSub)
		}
	}
}
