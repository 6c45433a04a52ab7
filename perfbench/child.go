package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// child is one awared process serving the benchmark's snapshot. The benchmark
// talks to it only over HTTP and reads its CPU time and memory from /proc, so
// the generator's own CPU and heap never mix with the server's.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan error
	log  *os.File
}

// startChild spawns awared on a kernel-chosen loopback port, serving every
// snapshot in dataDir and nothing else, and waits until /healthz answers.
func startChild(bin, dataDir, journalDir, workDir string) (*child, error) {
	addrFile := filepath.Join(workDir, "awared.addr")
	_ = os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(workDir, "awared.log"))
	if err != nil {
		return nil, fmt.Errorf("awared log: %w", err)
	}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data", dataDir, "-rows", "0"}
	if journalDir != "" {
		args = append(args, "-journal-dir", journalDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting awared: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan error, 1), log: logf}
	go func() { c.done <- cmd.Wait() }()

	deadline := time.Now().Add(60 * time.Second)
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		select {
		case err := <-c.done:
			c.done <- err
			c.stop()
			return nil, fmt.Errorf("awared exited during start-up: %v (see %s)", err, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("awared did not become healthy within 60s (see %s)", logf.Name())
		}
		if c.base == "" {
			if raw, err := os.ReadFile(addrFile); err == nil && len(strings.TrimSpace(string(raw))) > 0 {
				c.base = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if c.base != "" {
			if resp, err := hc.Get(c.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return c, nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts awared down gracefully and waits for it to exit, killing it if
// it takes longer than ten seconds.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
}

// procSample is the child's CPU time and peak memory as the kernel reports
// them.
type procSample struct {
	at     time.Time
	cpu    time.Duration // utime + stime
	rssKiB int64         // VmRSS
	hwmKiB int64         // VmHWM
}

func (c *child) sample() (procSample, error) {
	pid := c.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	// The command name may contain spaces; the fields after it are fixed.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return procSample{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return procSample{}, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	s := procSample{at: time.Now(), cpu: time.Duration(utime+stime) * time.Second / clockTicks}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		for _, field := range []struct {
			prefix string
			dst    *int64
		}{{"VmRSS:", &s.rssKiB}, {"VmHWM:", &s.hwmKiB}} {
			if v, ok := strings.CutPrefix(sc.Text(), field.prefix); ok {
				*field.dst, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
				if err != nil {
					return procSample{}, fmt.Errorf("parsing %s: %w", field.prefix, err)
				}
			}
		}
	}
	return s, sc.Err()
}

// sampleEvery samples the child every interval until stop is closed and
// returns the samples once its goroutine has exited.
func (c *child) sampleEvery(interval time.Duration, stop <-chan struct{}) <-chan []procSample {
	out := make(chan []procSample, 1)
	go func() {
		var samples []procSample
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- samples
				return
			case <-t.C:
				if s, err := c.sample(); err == nil {
					samples = append(samples, s)
				}
			}
		}
	}()
	return out
}

// promSnapshot is one scrape of the child's /metrics, keyed by the sample's
// full series name ("name{labels}").
type promSnapshot map[string]float64

func scrapeProm(ctx context.Context, hc *http.Client, base string) (promSnapshot, error) {
	body, err := getBody(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(promSnapshot)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// get returns one series; missing series read as 0 (a counter not yet
// registered has not counted anything).
func (p promSnapshot) get(series string) float64 { return p[series] }

// endpointSeries names a per-endpoint series of the request histogram.
func endpointSeries(metric, endpoint string) string {
	return metric + `{endpoint="` + endpoint + `"}`
}

// arenaFresh reads the census dataset's fresh-selection counter from
// /debug/metrics, the only surface that exposes the word arena.
func arenaFresh(ctx context.Context, hc *http.Client, base string) (float64, error) {
	body, err := getBody(ctx, hc, base+"/debug/metrics")
	if err != nil {
		return 0, err
	}
	var doc struct {
		SelectionArenas map[string]struct {
			FreshSelections float64 `json:"fresh_selections"`
		} `json:"selection_arenas"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("decoding /debug/metrics: %w", err)
	}
	return doc.SelectionArenas[datasetName].FreshSelections, nil
}

func getBody(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
