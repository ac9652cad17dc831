package bifrost

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the CPU time (user + system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField reads one numeric "name: value" field of a /proc/self file
// (0 when the file or field is missing).
func procField(file, name string) float64 {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			v, _ := strconv.ParseFloat(fields[0], 64)
			return v
		}
	}
	return 0
}

// memPeakMB is the process's peak resident set (VmHWM), in MB.
func memPeakMB() float64 { return procField("status", "VmHWM") / 1024 }

// bytesWritten is the number of bytes the process passed to write calls
// (/proc/self/io wchar).
func bytesWritten() float64 { return procField("io", "wchar") }

// mallocs returns the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakSampler tracks the goroutine count and live heap peaks of a traced
// run. Untraced runs do not start one.
type peakSampler struct {
	stop       chan struct{}
	done       chan struct{}
	goroutines int
	heapBytes  uint64
}

func startPeakSampler(every time.Duration) *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if g := runtime.NumGoroutine(); g > p.goroutines {
				p.goroutines = g
			}
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				if h := sample[0].Value.Uint64(); h > p.heapBytes {
					p.heapBytes = h
				}
			}
			select {
			case <-t.C:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Stop ends sampling; the peaks are readable once it returns.
func (p *peakSampler) Stop() {
	close(p.stop)
	<-p.done
}
