// Package cli is the flag and output plumbing the cmd/ drivers share:
// the model-selection flags, the -tenant flag, comma-list flag values,
// figure and report output, the -queue and -dot file writers, and the
// exit path. It imports only the public hios facade and the standard
// library, so every driver stays an ordinary facade client.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	hios "github.com/shus-lab/hios"
)

// Main runs a driver's body and, when it fails, prints "prog: err" to
// stderr and exits with status 1.
func Main(prog string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		os.Exit(1)
	}
}

// Model holds the model-selection flags hios-sched and hios-serve share.
type Model struct {
	Name              *string
	Size              *int
	Ops, Layers, Deps *int
	Seed              *int64
	CommRatio         *float64
}

// ModelFlags registers -model, -size and the random model's -ops,
// -layers, -deps, -seed and -p on the command line.
func ModelFlags() *Model {
	return &Model{
		Name:      flag.String("model", "inception", "model: inception, nasnet, squeezenet, resnet50, randwire, or random"),
		Size:      flag.Int("size", 0, "input image size (0 = model default)"),
		Ops:       flag.Int("ops", 200, "random model: number of operators"),
		Layers:    flag.Int("layers", 14, "random model: number of layers"),
		Deps:      flag.Int("deps", 400, "random model: number of dependencies"),
		Seed:      flag.Int64("seed", 1, "random model: seed"),
		CommRatio: flag.Float64("p", 0.8, "random model: transfer/compute time ratio"),
	}
}

// Build builds the selected model on the dual-A40 platform.
func (m *Model) Build() (*hios.Net, error) {
	cfg := hios.RandomModelDefaults()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed, cfg.CommRatio = *m.Ops, *m.Layers, *m.Deps, *m.Seed, *m.CommRatio
	return hios.BuildModel(hios.DualA40(), *m.Name, *m.Size, cfg)
}

// TenantFlag registers the repeatable -tenant flag of hios-serve and
// hios-cluster and returns the slice its occurrences append to.
func TenantFlag() *[]hios.ServeTenant {
	var tenants []hios.ServeTenant
	flag.Func("tenant", `repeatable tenant spec, e.g. "name=web,deadline=20,rate=300" (open-loop) or "name=batch,deadline=200,clients=4,think=5" (closed-loop); deadline/think in ms, rate in req/s`,
		hios.TenantSpec().AppendTo(&tenants))
	return &tenants
}

// Ints parses a comma-separated integer list; what names an element in
// errors. The empty string is a nil list (the option's default).
func Ints(s, what string) ([]int, error) { return list(s, what, strconv.Atoi) }

// Floats parses a comma-separated float list like Ints.
func Floats(s, what string) ([]float64, error) {
	return list(s, what, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

func list[T any](s, what string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// Figure writes f to stdout as JSON, or as a results table.
func Figure(f hios.Figure, asJSON bool) error {
	if asJSON {
		return f.RenderJSON(os.Stdout)
	}
	f.Render(os.Stdout)
	return nil
}

// report is a serving or cluster report.
type report interface {
	Render(io.Writer) error
	WriteQueue(io.Writer) error
}

// Report writes rep to stdout as indented JSON, or as header followed by
// the report's text rendering.
func Report(rep report, asJSON bool, header string) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Print(header)
	return rep.Render(os.Stdout)
}

// WriteQueue writes rep's queue-depth timeline CSV to path, when set.
func WriteQueue(path string, rep report) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, rep.WriteQueue); err != nil {
		return err
	}
	fmt.Printf("queue:     depth timeline written to %s\n", path)
	return nil
}

// WriteDOT writes the Graphviz rendering of a scheduled graph to path,
// when set.
func WriteDOT(path string, g *hios.Graph, s *hios.Schedule) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, func(w io.Writer) error { return hios.WriteDOT(w, g, s) }); err != nil {
		return err
	}
	fmt.Printf("graphviz:  written to %s\n", path)
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
