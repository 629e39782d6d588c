package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Summary statistics and host provenance.

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailWindow is how many consecutive solves one tail window holds.
const tailWindow = 10

// windowedQuantile splits xs, in the order measured, into windows of n
// samples and returns the median over windows of each window's
// q-quantile (a final window shorter than n is dropped). A slow period of
// the host moves the windows it covers, not the reported figure.
func windowedQuantile(xs []float64, n int, q float64) float64 {
	var per []float64
	for i := 0; i+n <= len(xs); i += n {
		per = append(per, quantile(xs[i:i+n], q))
	}
	return median(per)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// host is the provenance stamp printed beside every result.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	StealPct   float64 `json:"steal_pct"` // steal share of all CPU time over the run, from /proc/stat
	Seconds    float64 `json:"wall_s"`

	start      time.Time
	steal0, t0 uint64
}

func startHost() *host {
	h := &host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		start:      time.Now(),
	}
	h.steal0, h.t0 = cpuTimes()
	return h
}

func (h *host) finish() *host {
	steal, total := cpuTimes()
	if total > h.t0 {
		h.StealPct = 100 * float64(steal-h.steal0) / float64(total-h.t0)
	}
	h.Seconds = time.Since(h.start).Seconds()
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTimes returns the aggregate steal and total jiffies from /proc/stat.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
