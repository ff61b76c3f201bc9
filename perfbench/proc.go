package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHZ is the kernel's USER_HZ, the unit of the utime and stime fields
// of /proc/<pid>/stat. It is 100 on every Linux architecture Go targets.
const userHZ = 100

// gwProc is one bwgateway process started with -duration 0 and -admin,
// serving until it is stopped.
type gwProc struct {
	cmd    *exec.Cmd
	addr   string // wire protocol listen address
	admin  string // admin HTTP address (/metrics)
	stderr tailBuffer
	waited chan error
	once   sync.Once
}

// startGateway spawns bin with the benchmark's fixed serving flags plus
// flags, and returns once the banner has named both listen addresses.
func startGateway(bin string, flags []string, gomaxprocs int) (*gwProc, error) {
	args := append([]string{"-duration", "0", "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, flags...)
	g := &gwProc{cmd: exec.Command(bin, args...), waited: make(chan error, 1)}
	g.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	g.cmd.Stderr = &g.stderr
	out, err := g.cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("gateway stdout: %w", err)
	}
	if err := g.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gateway: %w", err)
	}
	go func() { g.waited <- g.cmd.Wait() }()

	lines := make(chan string)
	defer func() { // drain the rest (the shutdown summary) on every path
		go func() {
			for range lines {
			}
		}()
	}()
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
		io.Copy(io.Discard, out) // keep the pipe drained after a scan error
		close(lines)
	}()
	var banner []string
	timeout := time.After(10 * time.Second)
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				g.stop()
				return nil, fmt.Errorf("gateway exited before serving: %s", g.stderr.String())
			}
			banner = append(banner, l)
			if l != "serving until SIGINT/SIGTERM" {
				continue
			}
			g.addr, g.admin, err = parseBanner(banner)
			if err != nil {
				g.stop()
				return nil, err
			}
			return g, nil
		case <-timeout:
			g.stop()
			return nil, errors.New("gateway banner timed out")
		}
	}
}

// parseBanner extracts the wire and admin addresses from bwgateway's
// start-up lines: "gateway <addr>: ..." and "admin http://<addr>: ...".
func parseBanner(lines []string) (addr, admin string, err error) {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "gateway":
			addr = strings.TrimSuffix(f[1], ":")
		case "admin":
			admin = strings.TrimSuffix(strings.TrimPrefix(f[1], "http://"), ":")
		}
	}
	if addr == "" || admin == "" {
		return "", "", fmt.Errorf("banner names no wire or admin address: %q", lines)
	}
	return addr, admin, nil
}

// stop kills the process and waits for it to exit. The benchmark has
// already read everything it needs, so there is nothing to drain.
func (g *gwProc) stop() {
	g.once.Do(func() {
		g.cmd.Process.Signal(syscall.SIGKILL)
		<-g.waited
	})
}

// scrape fetches /metrics and returns every sample by series name.
func (g *gwProc) scrape() (map[string]float64, error) {
	resp, err := scrapeClient.Get("http://" + g.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// counter scrapes one unlabelled series.
func (g *gwProc) counter(name string) (float64, error) {
	m, err := g.scrape()
	if err != nil {
		return 0, err
	}
	v, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("scrape: no series %s", name)
	}
	return v, nil
}

// parseProm reads Prometheus text exposition into series -> value,
// keyed by the series name with its label set exactly as written.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		l := strings.TrimSpace(sc.Text())
		if l == "" || l[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", l)
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", l, err)
		}
		out[strings.TrimSpace(l[:i])] = v
	}
	return out, sc.Err()
}

// cpuTime reads the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU sums utime and stime (fields 14 and 15) of a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// cpuTicks is the machine-wide CPU time from the first line of
// /proc/stat, in USER_HZ ticks: all of it, and the share the hypervisor
// gave to other guests (steal).
type cpuTicks struct{ total, steal int64 }

func hostCPU() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	return parseHostCPU(string(b))
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat; steal is
// its eighth value.
func parseHostCPU(stat string) (cpuTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("proc stat: no cpu line in %q", line)
	}
	var t cpuTicks
	for i, s := range f[1:] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("proc stat: %w", err)
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// peakRSS reads VmHWM, the process's peak resident set, in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// parseVmHWM finds the "VmHWM:  <n> kB" line of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, l := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(l, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %q", l)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// tailBuffer keeps the last few KiB written to it, for error reports.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

const tailMax = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > tailMax {
		t.b = append(t.b[:0], t.b[len(t.b)-tailMax:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// scrapeClient bounds every /metrics fetch, so a wedged gateway fails
// the run instead of hanging it.
var scrapeClient = &http.Client{Timeout: 5 * time.Second}
