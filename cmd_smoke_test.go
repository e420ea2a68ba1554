package snoopmva

// Smoke tests for the command-line tools: build each binary once and run it
// with small arguments, checking exit status and a sentinel in the output.

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests build binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	journalPath := filepath.Join(t.TempDir(), "campaign.jsonl")
	paramsPath := filepath.Join(t.TempDir(), "params.json")
	if err := os.WriteFile(paramsPath, []byte(`{"base":"5%"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"mvasolve", []string{"-protocol", "Dragon", "-sharing", "5", "-sweep", "1,4"}, "speedup"},
		{"mvasolve", []string{"-n", "4", "-explain", "-timeout", "30s"}, "equation 1"},
		{"mvasolve", []string{"-stress", "-n", "4"}, "speedup"},
		{"mvasolve", []string{"-n", "8", "-hsw", "0"}, "4.4523"},           // default h_sw reads 4.8734
		{"mvasolve", []string{"-params", paramsPath, "-n", "8"}, "4.8734"}, // as -sharing 5 -n 8
		// The title names the workload solved, not the -sharing default.
		{"mvasolve", []string{"-stress", "-n", "4"}, "Write-Once (WO), stress test\n"},
		{"mvasolve", []string{"-params", paramsPath, "-n", "8"}, "Write-Once (WO), params.json\n"},
		{"mvasolve", []string{"-n", "8", "-hsw", "0", "-tau", "3"}, "Write-Once (WO), 5% sharing, -hsw 0, -tau 3\n"},
		{"mvasolve", []string{"-protocol", "Illinois", "-sweep", "1..3"}, "2.4848"}, // a range, as gtpnsolve and campaign take; N=3's speedup
		{"gtpnsolve", []string{"-sharing", "5", "-n", "2", "-compare"}, "states"},
		{"gtpnsolve", []string{"-sharing", "5", "-n", "4", "-compare", "-memory"}, "3.127"},
		{"gtpnsolve", []string{"-sweep", "2..3"}, "906"}, // N=3's state count
		{"gtpnsolve", []string{"-sweep", "2..3"}, "alloc-MB"},
		{"cachesim", []string{"-protocol", "Illinois", "-sharing", "5", "-n", "4", "-cycles", "40000",
			"-warmup", "2000", "-timeout", "60s", "-compare"}, "Illinois"},
		{"paperrepro", []string{"-list"}, "tab4.1a"},
		{"paperrepro", []string{"-exp", "power", "-gtpn", "0", "-simcycles", "0"}, "4.32"},
		{"paperrepro", []string{"-exp", "stress", "-gtpn", "4", "-simcycles", "0"}, "| 4 | 2.1128 | 2.0709 | 2.0 |"},
		{"sensitivity", []string{"-n", "8"}, "h_private"},
		{"sensitivity", []string{"-sweep", "h_sw", "-values", "0.3,0.7"}, "h_sw"},
		{"protodoc", []string{"-protocol", "Berkeley"}, "OwnedShared"},
		{"protodoc", []string{"-mods", "1,4", "-format", "markdown"}, "update-write"},
		{"campaign", []string{"-protocols", "Illinois", "-sharing", "5", "-ns", "1..8",
			"-journal", journalPath}, "8 computed"},
		{"campaign", []string{"-protocols", "Illinois", "-sharing", "5", "-ns", "1..8",
			"-journal", journalPath, "-resume"}, "8 resumed"},
		{"snoopbench", []string{"-quick", "-conns", "4", "-rate", "2", "-batch", "2",
			"-out", "-"}, "batch_speedup_vs_json"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name+"_"+strings.Join(c.args[:1], ""), func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, c.name), c.args...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", c.name, c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%s %v output missing %q:\n%s", c.name, c.args, c.want, out)
			}
		})
	}

	// Error paths exit non-zero; where want is set, the flag-validation
	// message must name the offending flag so a user can act on it. The
	// command's "name: " prefix appears at most once, even when the error
	// comes from a library package that prefixes its own name. A bad
	// -format fails before the campaign runs, so it writes no journal.
	badJournal := filepath.Join(t.TempDir(), "bad-format.jsonl")
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"mvasolve", []string{"-sharing", "7"}, ""},
		{"mvasolve", []string{"-tau", "-5"}, "tau"},
		{"mvasolve", []string{"-amodp", "NaN"}, "amod_private"},
		{"mvasolve", []string{"-timeout", "-1s"}, "-timeout"},
		{"mvasolve", []string{"-sweep", "2,0"}, "-sweep"},
		{"gtpnsolve", []string{"-maxstates", "-1"}, "-maxstates"},
		{"gtpnsolve", []string{"-maxstates", "0"}, "-maxstates"},
		{"gtpnsolve", []string{"-timeout", "-1s"}, "-timeout"},
		{"gtpnsolve", []string{"-sweep", "2,0"}, "-sweep"},
		{"cachesim", []string{"-cycles", "0"}, "-cycles"},
		{"cachesim", []string{"-n", "100000"}, "1..128"},
		{"cachesim", []string{"-timeout", "-1s"}, "-timeout"},
		{"cachesim", []string{"-n", "1", "-cycles", "1", "-warmup", "1"}, "no requests completed"},
		{"paperrepro", []string{"-exp", "nonesuch"}, ""},
		{"paperrepro", []string{"-timeout", "-1s"}, "-timeout"},
		{"protodoc", []string{"-protocol", "nonesuch"}, ""},
		{"protodoc", []string{"-format", "xml"}, "unknown format"},
		{"sensitivity", []string{"-sweep", "nonesuch", "-values", "1"}, "nonesuch"},
		{"sensitivity", []string{"-tornado", "0"}, "-tornado"},
		{"campaign", []string{"-resume"}, ""}, // resume needs -journal
		{"campaign", []string{"-ns", "4..1"}, ""},
		{"campaign", []string{"-ns", "0"}, "below 1"},
		{"campaign", []string{"-timeout", "-1s"}, "-timeout"},
		{"campaign", []string{"-point-timeout", "-1s"}, "-point-timeout"},
		// A point that runs past its deadline fails that point, not the run:
		// the table is printed, and the exit status reports the failure.
		{"campaign", []string{"-protocols", "Write-Once", "-sharing", "5", "-ns", "8",
			"-max-states", "-1", "-sim-cycles", "300000", "-point-timeout", "1ms"}, "FAILED"},
		{"campaign", []string{"-ns", "1..2", "-protocols", "Write-Once", "-format", "xml",
			"-journal", badJournal}, "unknown format"},
		{"campaign", []string{"-ns", "1..2", "-protocols", "Write-Once", "-quiet", "-format", "xml",
			"-journal", badJournal}, "unknown format"},
		{"campaignd", []string{}, "-workers is required"},
		{"campaignd", []string{"-workers", "wire://"}, "wire:// needs host:port"},
		{"campaignd", []string{"-workers", "wire://h:1?http=%zz"}, "-workers"},
		{"campaignd", []string{"-workers", "http://localhost:1", "-ns", "4..1"}, ""},
		{"campaignd", []string{"-workers", "http://localhost:1", "-max-inflight", "-1"}, "-max-inflight"},
		{"campaignd", []string{"-workers", "http://localhost:1", "-quarantine-after", "-1"}, "-quarantine-after"},
		{"campaignd", []string{"-workers", "http://localhost:1", "-format", "xml"}, "unknown format"},
		{"campaignd", []string{"-workers", "http://localhost:1", "-timeout", "-1s"}, "-timeout"},
		{"campaignd", []string{"-workers", "http://localhost:1", "-point-timeout", "-1s"}, "-point-timeout"},
		{"snoopbench", []string{"-conns", "-1"}, "-conns must be >= 0"},
		{"snoopbench", []string{"-rate", "0"}, "-rate must be >= 1"},
		{"snoopbench", []string{"-batch", "2000"}, "-batch must be in 1.."},
		{"snoopbench", []string{"-addr", "nonsense"}, "-addr"},
		{"snoopbench", []string{"-addr", "127.0.0.1:1"}, "-addr needs -http"},
		{"snoopbench", []string{"-http", "http://localhost:1"}, "-http needs -addr"},
		{"snoopd", []string{"-wire-addr", "nonsense"}, "-wire-addr"},
		{"snoopd", []string{"-max-inflight", "-1"}, "-max-inflight"},
		{"snoopd", []string{"-max-inflight", "2", "-admission-target-ms", "0"}, "-admission-target-ms"},
	} {
		cmd := exec.Command(filepath.Join(bin, c.name), c.args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%s %v should fail:\n%s", c.name, c.args, out)
			continue
		}
		if c.want != "" && !strings.Contains(string(out), c.want) {
			t.Errorf("%s %v error output missing %q:\n%s", c.name, c.args, c.want, out)
		}
		if n := strings.Count(string(out), c.name+": "); n > 1 {
			t.Errorf("%s %v error output repeats the %q prefix %d times:\n%s", c.name, c.args, c.name+": ", n, out)
		}
	}
	if _, err := os.Stat(badJournal); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a campaign with a bad -format left a journal behind (stat: %v)", err)
	}

	// snoopd with -wire-addr: both listeners come up (wire first, so a bad
	// address is a clean validation exit) and SIGTERM drains both cleanly.
	t.Run("snoopd_wire_addr_graceful", func(t *testing.T) {
		cmd := exec.Command(filepath.Join(bin, "snoopd"),
			"-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var lines []string
		ready := make(chan struct{})
		scanned := make(chan struct{})
		go func() {
			defer close(scanned)
			sc := bufio.NewScanner(stderr)
			listening, signaled := 0, false
			for sc.Scan() {
				lines = append(lines, sc.Text())
				if strings.Contains(sc.Text(), "listening on") {
					listening++
				}
				if listening == 2 && !signaled {
					signaled = true
					close(ready)
				}
			}
		}()
		select {
		case <-ready:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-scanned
			t.Fatalf("snoopd did not come up:\n%s", strings.Join(lines, "\n"))
		}
		// The listeners print before the signal handler installs; give it
		// a beat so SIGTERM is drained, not fatal.
		time.Sleep(200 * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		<-scanned // drain stderr fully before Wait closes the pipe
		err = cmd.Wait()
		out := strings.Join(lines, "\n")
		if err != nil {
			t.Fatalf("snoopd exit after SIGTERM: %v\n%s", err, out)
		}
		if !strings.Contains(out, "wire listening on") || !strings.Contains(out, "drained, bye") {
			t.Errorf("snoopd output missing wire startup or drain lines:\n%s", out)
		}
	})
}
