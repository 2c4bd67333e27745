package hios_test

// CLI goldens: the stdout, stderr and exit code of each cmd/ driver on a
// fixed set of small invocations, including every driver's -h text, so
// flag names, defaults, usage strings and printed reports are pinned
// byte for byte.
//
// Regenerate (only when an intentional behavioural change is made) with:
//
//	HIOS_UPDATE_GOLDENS=1 go test -run TestGoldenCLI .

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliGolden is one driver invocation. Invocations run in order in one
// shared working directory, so a later one may read a file an earlier
// one wrote.
type cliGolden struct {
	name string // golden file stem
	cmd  string // driver under cmd/
	args []string
}

var cliGoldens = []cliGolden{
	{"sched-default", "hios-sched", nil},
	{"sched-random-mr", "hios-sched", []string{"-model", "random", "-algo", "hios-mr", "-gpus", "4"}},
	{"sched-nasnet-ios-gantt", "hios-sched", []string{"-model", "nasnet", "-algo", "ios", "-gantt"}},
	{"sched-out", "hios-sched", []string{"-model", "squeezenet", "-gpus", "4", "-out", "sched.json"}},
	{"sched-eval", "hios-sched", []string{"-model", "squeezenet", "-eval", "sched.json"}},
	{"serve-default", "hios-serve", nil},
	{"serve-edf-shed-json", "hios-serve", []string{"-model", "squeezenet", "-policy", "edf-shed", "-load", "1.2", "-json"}},
	{"serve-tenants", "hios-serve", []string{"-tenant", "name=web,deadline=20,rate=300", "-tenant", "name=batch,deadline=200,clients=4,think=5"}},
	{"serve-sweep", "hios-serve", []string{"-sweep", "-seeds", "1", "-loads", "0.5,1.0", "-horizon", "50", "-ops", "30"}},
	{"cluster-default", "hios-cluster", nil},
	{"cluster-nodes-autoscale", "hios-cluster", []string{"-node", "platform=a40,count=2,replicas=2", "-node", "platform=v100s,count=1", "-router", "weighted", "-autoscale", "-scale-max", "6"}},
	{"cluster-sweep", "hios-cluster", []string{"-sweep", "-seeds", "1", "-sizes", "2,4", "-requests", "200"}},
	{"sim-fig7", "hios-sim", []string{"-fig", "7", "-seeds", "1"}},
	{"exp-fig1", "hios-exp", []string{"-fig", "1"}},
	{"exp-fig12-nasnet", "hios-exp", []string{"-fig", "12", "-model", "nasnet", "-sizes", "331"}},
	{"sched-help", "hios-sched", []string{"-h"}},
	{"serve-help", "hios-serve", []string{"-h"}},
	{"cluster-help", "hios-cluster", []string{"-h"}},
	{"sim-help", "hios-sim", []string{"-h"}},
	{"exp-help", "hios-exp", []string{"-h"}},
}

func TestGoldenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the cmd/ drivers")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/hios-sched", "./cmd/hios-serve", "./cmd/hios-cluster", "./cmd/hios-sim", "./cmd/hios-exp")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	work := t.TempDir()
	for _, c := range cliGoldens {
		// Not parallel subtests: invocations share the working
		// directory and may depend on an earlier one's files.
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, c.cmd), c.args...)
			cmd.Args[0] = c.cmd // the -h text names the program by argv[0]
			cmd.Dir = work
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			var got bytes.Buffer
			fmt.Fprintf(&got, "$ %s\nexit: %d\n== stdout ==\n", strings.Join(cmd.Args, " "), code)
			got.Write(stdout.Bytes())
			got.WriteString("== stderr ==\n")
			got.Write(stderr.Bytes())
			checkCLIGolden(t, c.name+".txt", got.Bytes())
		})
	}
}

// checkCLIGolden compares got against testdata/goldens/cli/name, or
// rewrites the file under HIOS_UPDATE_GOLDENS.
func checkCLIGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "goldens", "cli", name)
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
		t.Fatalf("output diverged from golden %s (run with HIOS_UPDATE_GOLDENS=1 only if the change is intentional)\ngot:\n%s", path, got)
	}
}
