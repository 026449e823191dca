package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the daemon and the trace validator from the tree
// at root into dir.
func buildBinaries(root, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/dlsd", "./cmd/dlstrace")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/dlsd ./cmd/dlstrace: %w", err)
	}
	return nil
}

// daemon is one dlsd child process started with deployment flags only, so
// whatever defaults the tree ships are what gets measured.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // mechanism listener
	metrics string // /metrics URL
	logDone chan struct{}

	mu     sync.Mutex
	log    []string // stderr lines
	waited bool     // the process has been reaped
}

var (
	listenRe  = regexp.MustCompile(`listening on (\S+)`)
	metricsRe = regexp.MustCompile(`metrics on (http://\S+/metrics)`)
)

// startDaemon execs dlsd and waits until it reports both bound addresses
// (with a ledger, that is after crash recovery has finished).
func startDaemon(bin, ledgerDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}
	if ledgerDir != "" {
		args = append(args, "-ledger-dir", ledgerDir)
	}
	cmd := exec.Command(bin, args...)
	// The daemon runs at its default GOMAXPROCS whatever this process uses.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dlsd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	ready := make(chan struct{})
	go d.readLog(pipe, ready)
	select {
	case <-ready:
		return d, nil
	case <-d.logDone:
		d.cmd.Wait()
		d.waited = true
		return nil, fmt.Errorf("dlsd exited before listening:\n%s", d.logText())
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, fmt.Errorf("dlsd did not report its addresses within 120s:\n%s", d.logText())
	}
}

// readLog keeps the daemon's stderr drained for its whole life, closing
// ready once both listener addresses have been seen.
func (d *daemon) readLog(r io.Reader, ready chan struct{}) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.log = append(d.log, line)
		if m := listenRe.FindStringSubmatch(line); m != nil {
			d.addr = m[1]
		}
		if m := metricsRe.FindStringSubmatch(line); m != nil {
			d.metrics = m[1]
		}
		done := !signalled && d.addr != "" && d.metrics != ""
		d.mu.Unlock()
		if done {
			signalled = true
			close(ready)
		}
	}
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// drain sends SIGTERM and waits for the graceful drain. It fails unless the
// daemon exits 0 without reporting leaked sessions.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal dlsd: %w", err)
	}
	select {
	case <-d.logDone:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("dlsd did not drain within 60s")
	}
	err := d.cmd.Wait()
	d.waited = true
	if err != nil {
		return fmt.Errorf("dlsd drain: %v\n%s", err, d.logText())
	}
	if strings.Contains(d.logText(), "leaked") {
		return fmt.Errorf("dlsd reported leaked sessions:\n%s", d.logText())
	}
	return nil
}

// kill stops the daemon at once and reaps it (error paths only).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
	d.waited = true
}

// cleanup kills the daemon unless it has already exited.
func (d *daemon) cleanup() {
	if !d.waited {
		d.kill()
	}
}

// scrape fetches the daemon's metrics as series name → value. Series the
// daemon does not export are simply absent from the map.
func (d *daemon) scrape() (map[string]float64, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(d.metrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", d.metrics, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procMemKiB returns one "Vm*" line of /proc/<pid>/status in KiB.
func procMemKiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
