package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running detectived process.
type child struct {
	cmd     *exec.Cmd
	args    []string
	addr    string // public listener, host:port
	opsAddr string
	done    chan error
}

// freePorts asks the kernel for n distinct unused loopback ports. The
// listeners stay open until all n are taken, so no port is handed out
// twice.
func freePorts(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// childArgs is the detectived command line for a workload: the files
// the generator wrote, two loopback listeners, and nothing else, so
// every tuning flag keeps its default.
func childArgs(w *workloadSpec, in *inputs, addr, opsAddr string) []string {
	if w.registry {
		return []string{"-registry", in.configPath, "-addr", addr, "-ops-addr", opsAddr}
	}
	return []string{"-kb-snapshot", in.kbPath, "-rules", in.rulesPath,
		"-schema", strings.Join(in.attrs, ","), "-addr", addr, "-ops-addr", opsAddr}
}

// startChild execs detectived and waits for it to answer readyPath
// with 200. It returns the child and the time from exec to that 200.
func startChild(bin string, w *workloadSpec, in *inputs, logPath string) (*child, time.Duration, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, 0, err
	}
	addr, opsAddr := ports[0], ports[1]
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	c := &child{args: childArgs(w, in, addr, opsAddr), addr: addr, opsAddr: opsAddr, done: make(chan error, 1)}
	c.cmd = exec.Command(bin, c.args...)
	c.cmd.Stdout = logf
	c.cmd.Stderr = logf
	probe := &http.Client{Timeout: time.Second}
	url := "http://" + addr + w.readyPath()
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { c.done <- c.cmd.Wait() }()
	for {
		resp, err := probe.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				probe.CloseIdleConnections()
				return c, setup, nil
			}
		}
		select {
		case err := <-c.done:
			c.done <- err
			return nil, 0, fmt.Errorf("detectived exited before ready: %v (log %s)", err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			c.stop()
			return nil, 0, fmt.Errorf("detectived not ready after 60s (log %s)", logPath)
		}
	}
}

// stop asks the child to drain (SIGTERM) and waits for it to exit,
// killing it if it does not within ten seconds.
func (c *child) stop() error {
	if c == nil || c.cmd.Process == nil {
		return nil
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-c.done:
		c.done <- err
		return nil
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		err := <-c.done
		c.done <- err
		return fmt.Errorf("detectived ignored SIGTERM; killed")
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) from /proc.
func (c *child) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kbs, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kbs / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape is the part of the child's own accounting the benchmark
// reads: GET /stats (single tenant, or the hot tenant's), the ops
// /metrics exposition and, in registry mode, GET /registry.
type scrape struct {
	stats struct {
		CandidateCache struct{ Hits, Misses int64 } `json:"candidateCache"`
		SignatureIndex struct{ Hits, Misses int64 } `json:"signatureIndex"`
		Memo           struct {
			Tuple memoTier `json:"tuple"`
			Cell  memoTier `json:"cell"`
		} `json:"memo"`
	}
	metrics  map[string]float64 // series name -> sum over label sets
	registry struct {
		Tenants []struct {
			Admissions int64 `json:"admissions"`
			Evictions  int64 `json:"evictions"`
		} `json:"tenants"`
	}
}

type memoTier struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (c *child) scrape(w *workloadSpec, hc *http.Client) (*scrape, error) {
	s := &scrape{metrics: map[string]float64{}}
	statsPath := "/stats"
	if w.registry {
		statsPath = "/v1/" + tenantName(0) + "/stats"
	}
	if err := getJSON(hc, "http://"+c.addr+statsPath, &s.stats); err != nil {
		return nil, err
	}
	if w.registry {
		if err := getJSON(hc, "http://"+c.opsAddr+"/registry", &s.registry); err != nil {
			return nil, err
		}
	}
	resp, err := hc.Get("http://" + c.opsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	parseExposition(data, s.metrics)
	return s, nil
}

// parseExposition sums every sample of the Prometheus text exposition
// by series name, over all label sets.
func parseExposition(data []byte, into map[string]float64) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := string(line[:sp])
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err == nil {
			into[name] += v
		}
	}
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
