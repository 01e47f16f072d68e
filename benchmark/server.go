package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/navarchos-serve into dir and returns the
// binary's path. The package is main, so the harness cannot import it;
// it drives the real binary instead.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "navarchos-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/navarchos-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/navarchos-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// moduleRoot walks up from dir to the directory holding the repo's
// go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if b, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil &&
			bytes.Contains(b, []byte("module github.com/navarchos/pdm")) {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no go.mod of github.com/navarchos/pdm above %s", dir)
		}
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// tailBuffer keeps the last max bytes written: the server's stderr,
// quoted in failure messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// alarmLine is one alarm as navarchos-serve prints it on stdout.
type alarmLine struct {
	vehicle string
	minute  int64 // unix minutes, UTC
}

// parseAlarmLine reads serve's alarm format
//
//	2006-01-02 15:04  veh-07   corr(rpm,speed)   score=1.2345 threshold=0.9876
//
// and reports false for anything else the server prints (start-up and
// shutdown banners).
func parseAlarmLine(line string) (alarmLine, bool) {
	const stamp = "2006-01-02 15:04"
	if len(line) < len(stamp)+2 {
		return alarmLine{}, false
	}
	t, err := time.ParseInLocation(stamp, line[:len(stamp)], time.UTC)
	if err != nil {
		return alarmLine{}, false
	}
	f := strings.Fields(line[len(stamp):])
	if len(f) < 4 || !strings.HasPrefix(f[len(f)-2], "score=") || !strings.HasPrefix(f[len(f)-1], "threshold=") {
		return alarmLine{}, false
	}
	return alarmLine{vehicle: f[0], minute: minuteOf(t)}, true
}

// serverOpts selects what one navarchos-serve process is started with.
type serverOpts struct {
	shards  int
	factor  float64
	journal string // -journal path; the verification input
	// onAlarm, when non-nil, is called from the stdout drain goroutine
	// for every alarm line, with the time the line was read.
	onAlarm func(alarmLine, time.Time)
}

// serverProc is one running navarchos-serve.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *tailBuffer
	// exited closes once the process is reaped and stdout is drained.
	exited  chan struct{}
	waitErr error
}

// startServer launches the binary on a free port and waits until it
// answers. Every failure message carries the server's stderr.
//
// The process is started from a goroutine locked to its OS thread that
// lives until the process is reaped: with Pdeathsig set, Linux kills
// the child when the *thread* that forked it ends, so the thread must
// outlive the child for the signal to mean "the harness died" — which
// covers panics and SIGKILL, the paths no deferred stop can.
func startServer(ctx context.Context, bin string, o serverOpts) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := startServerOn(ctx, bin, addr, o)
		if err == nil {
			return p, nil
		}
		// The port can be taken between freeAddr and the server's bind;
		// another port fixes that and nothing else.
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func startServerOn(ctx context.Context, bin, addr string, o serverOpts) (*serverProc, error) {
	args := []string{"-addr", addr, "-shards", strconv.Itoa(o.shards),
		"-factor", strconv.FormatFloat(o.factor, 'g', -1, 64)}
	if o.journal != "" {
		args = append(args, "-journal", o.journal)
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = childAttr()
	p := &serverProc{cmd: cmd, base: "http://" + addr,
		stderr: &tailBuffer{max: 8 << 10}, exited: make(chan struct{})}
	cmd.Stderr = p.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}

	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with this goroutine
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		// stdout is always drained to EOF: a full pipe would stall the
		// server's alarm drain goroutine and distort every latency.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if o.onAlarm == nil {
				continue
			}
			now := time.Now()
			if a, ok := parseAlarmLine(sc.Text()); ok {
				o.onAlarm(a, now)
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck // a line past the scanner's limit; keep draining
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}

	// Readiness: poll /fleet until it answers, the process dies, or 10 s.
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(p.base + "/fleet")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // readiness probe
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("navarchos-serve exited during start-up (%v); stderr:\n%s", p.waitErr, p.stderr)
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			p.kill()
			return nil, fmt.Errorf("navarchos-serve not ready on %s after 10s; stderr:\n%s", addr, p.stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the server to drain (SIGTERM: it flushes the engine and
// closes the journal), waits, and kills it if it does not exit.
func (p *serverProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.kill()
		return fmt.Errorf("signal navarchos-serve: %w", err)
	}
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("navarchos-serve did not exit 20s after SIGTERM; stderr:\n%s", p.stderr)
	}
	if p.waitErr != nil {
		return fmt.Errorf("navarchos-serve: %v; stderr:\n%s", p.waitErr, p.stderr)
	}
	return nil
}

// kill ends the process now and waits until it is reaped.
func (p *serverProc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-p.exited
}

// cpu is the user + system CPU time the process used from start to
// exit; valid once it has been reaped.
func (p *serverProc) cpu() time.Duration {
	st := p.cmd.ProcessState
	if st == nil {
		return 0
	}
	return st.UserTime() + st.SystemTime()
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB; 0 when
// /proc does not say.
func (p *serverProc) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fleetRecordsIn asks /fleet how many records the engine has processed.
func fleetRecordsIn(c *http.Client, base string) (uint64, error) {
	resp, err := c.Get(base + "/fleet")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /fleet: %s", resp.Status)
	}
	var st struct {
		Engine struct {
			RecordsIn uint64
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("GET /fleet: %w", err)
	}
	return st.Engine.RecordsIn, nil
}

// promSample sums every series of one family in a Prometheus text
// exposition and also returns the largest single series value.
func promSample(body []byte, family string) (sum, max float64) {
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' || !bytes.HasPrefix(line, []byte(family)) {
			continue
		}
		rest := line[len(family):]
		if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue // a longer family name sharing the prefix
		}
		i := bytes.LastIndexByte(rest, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(rest[i+1:]), 64)
		if err != nil {
			continue
		}
		sum += v
		if v > max {
			max = v
		}
	}
	return sum, max
}
