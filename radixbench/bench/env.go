package bench

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/radix-net/radixnet/internal/cliutil"
)

// Env is the fingerprint printed with every run, so a number can be tied to
// the machine and the code that produced it.
type Env struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Kernel     string `json:"kernel"`
	LLCBytes   int64  `json:"llc_bytes"`
}

// Fingerprint reads the environment. GOMAXPROCS and GOGC are recorded as
// found: the benchmark never sets them.
func Fingerprint() Env {
	e := Env{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		GitSHA:     cliutil.GitSHA(), // "unknown" in the driver's checkout, which is not a repository
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LLCBytes:   llcBytes(),
	}
	if e.GOGC == "" {
		e.GOGC = "default(100)"
	}
	return e
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcBytes is the size of the largest cache sysfs reports for cpu0 (0 when
// it reports none, as in some VMs).
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		s := firstLine("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// PeakRSSMB is the process's resident-set high-water mark (VmHWM), in MB.
func PeakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// usage is the process-wide resource reading a phase takes deltas of.
type usage struct {
	allocBytes, mallocs, gcCycles, gcPauseMs, cpuUs float64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := usage{
		allocBytes: float64(m.TotalAlloc),
		mallocs:    float64(m.Mallocs),
		gcCycles:   float64(m.NumGC),
		gcPauseMs:  float64(m.PauseTotalNs) / 1e6,
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpuUs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
	}
	return u
}

func (u usage) sub(p usage) usage {
	return usage{u.allocBytes - p.allocBytes, u.mallocs - p.mallocs, u.gcCycles - p.gcCycles,
		u.gcPauseMs - p.gcPauseMs, u.cpuUs - p.cpuUs}
}

// spinSink keeps SpinMs's loop from being optimised away.
var spinSink uint64

// SpinMs times a fixed integer loop. The loop never changes, so when it
// reads slower the host was busier (or clocked lower), not the program
// under test.
func SpinMs() float64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	spinSink += x
	return ms(d)
}
