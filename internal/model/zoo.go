package model

import (
	"fmt"
	"strings"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/randdag"
)

// zooModel is one entry of the model zoo: the name the cmd/ drivers'
// -model flags take, the label the paper's figures use, the default
// input size, and the builder.
type zooModel struct {
	name, label string
	size        int
	build       func(p gpu.Platform, size int, random randdag.Config) (*Net, error)
}

// cnn adapts a fixed-architecture builder to the zoo signature.
func cnn(f func(gpu.Device, gpu.Link, int) (*Net, error)) func(gpu.Platform, int, randdag.Config) (*Net, error) {
	return func(p gpu.Platform, size int, _ randdag.Config) (*Net, error) { return f(p.Dev, p.Link, size) }
}

// zoo is the one table of model names and default input sizes.
var zoo = []zooModel{
	{"inception", "inception-v3", 299, cnn(InceptionV3)},
	{"nasnet", "nasnet-a", 331, cnn(NASNet)},
	{"squeezenet", "squeezenet", 224, cnn(SqueezeNet)},
	{"resnet50", "resnet50", 224, cnn(ResNet50)},
	{"randwire", "randwire", DefaultRandWire().InputSize, func(p gpu.Platform, size int, random randdag.Config) (*Net, error) {
		cfg := DefaultRandWire()
		cfg.InputSize, cfg.Seed = size, random.Seed
		return RandWire(p.Dev, p.Link, cfg)
	}},
	// The random layered model is priced by the generator, not the
	// platform, and has no input size.
	{"random", "random", 0, func(_ gpu.Platform, _ int, random randdag.Config) (*Net, error) {
		g, err := randdag.Generate(random)
		if err != nil {
			return nil, err
		}
		return &Net{Name: fmt.Sprintf("random-%d-%d-%d", random.Ops, random.Layers, random.Deps), G: g}, nil
	}},
}

func lookup(name string) (zooModel, error) {
	names := make([]string, len(zoo))
	for i, m := range zoo {
		if name == m.name || name == m.label {
			return m, nil
		}
		names[i] = m.name
	}
	return zooModel{}, fmt.Errorf("unknown model %q (want %s or %s)",
		name, strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}

// Build builds the zoo model named by name — inception, nasnet,
// squeezenet, resnet50, randwire or random, or a figure label such as
// inception-v3 — on platform p at a square input size (0 selects the
// model's default). random shapes the random layered model; its Seed
// also wires randwire. An unknown name, an input size the architecture
// cannot shrink to, or an invalid random config is an error.
func Build(p gpu.Platform, name string, size int, random randdag.Config) (*Net, error) {
	m, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if size == 0 {
		size = m.size
	}
	return m.build(p, size, random)
}

// DefaultSize returns the default input size of the named zoo model, or
// 0 when the name is unknown or the model has no input size.
func DefaultSize(name string) int {
	m, _ := lookup(name)
	return m.size
}
