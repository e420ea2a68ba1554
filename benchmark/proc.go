package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the snoopmva module root by walking up from the working
// directory, so the benchmark runs from the repository root or from its
// own directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module snoopmva\n") {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", errors.New("snoopmva module root not found above the working directory")
		}
		dir = up
	}
}

// buildSnoopd builds ./cmd/snoopd from the repository into dir and
// returns the binary's path.
func buildSnoopd(dir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "snoopd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/snoopd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/snoopd: %v\n%s", err, out)
	}
	return bin, nil
}

// snoopdFlags are the server settings every workload that serves uses:
// the binary listener on, and admission control bounding in-flight
// requests.
var snoopdFlags = []string{"-max-inflight", "64"}

// server is a running snoopd child process and the one HTTP keep-alive
// connection the benchmark talks to it over.
type server struct {
	cmd      *exec.Cmd
	httpBase string
	wireAddr string
	http     *http.Client
	stderr   bytes.Buffer
	stderrMu sync.Mutex
	readDone chan struct{}
}

// startSnoopd starts bin on loopback ports and waits until it answers
// /healthz. The child is killed if this process dies first.
func startSnoopd(ctx context.Context, bin string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStartSnoopd(ctx, bin)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartSnoopd(ctx context.Context, bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-wire-addr", "127.0.0.1:0"}, snoopdFlags...)
	cmd := exec.Command("nice", append([]string{"-n", "10", bin}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{
		cmd:      cmd,
		httpBase: "http://127.0.0.1:" + strconv.Itoa(port),
		readDone: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	wireAddr := make(chan string, 1)
	go func() {
		defer close(s.readDone)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderrMu.Lock()
			s.stderr.WriteString(line + "\n")
			s.stderrMu.Unlock()
			if a, ok := strings.CutPrefix(line, "snoopd: wire listening on "); ok {
				select {
				case wireAddr <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
	}()
	fail := func(err error) (*server, error) {
		s.stop()
		return nil, fmt.Errorf("start snoopd: %w\n%s", err, s.log())
	}
	deadline := time.Now().Add(15 * time.Second)
	select {
	case s.wireAddr = <-wireAddr:
	case <-s.readDone:
		return fail(errors.New("exited before listening"))
	case <-time.After(time.Until(deadline)):
		return fail(errors.New("no wire listener within 15s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := s.http.Get(s.httpBase + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("not healthy within 15s: %v", err))
		}
		select {
		case <-s.readDone:
			return fail(errors.New("exited before answering /healthz"))
		case <-time.After(time.Millisecond):
		}
	}
}

func (s *server) log() string {
	s.stderrMu.Lock()
	defer s.stderrMu.Unlock()
	return s.stderr.String()
}

// rssMB is the child's peak resident set so far.
func (s *server) rssMB() float64 { return peakRSSMB(s.cmd.Process.Pid) }

// stop asks the child to drain and exit, kills it if it has not within 5
// seconds, and waits for it and its log reader.
func (s *server) stop() {
	if t, ok := s.http.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-s.readDone
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
}

// freePort asks the kernel for an unused loopback port. snoopd's HTTP
// listener reports only its flag value, so the port is chosen here.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// peakRSSMB reads VmHWM of process pid (0 means this process) from
// /proc, in MiB. It returns 0 where /proc is unavailable.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
