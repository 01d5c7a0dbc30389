package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"maxsumdiv/internal/metric"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeReading samples the runtime counters a window is charged with.
type runtimeReading struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeReading{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// liveHeap is the bytes of live heap objects after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// envStamp identifies the host a run measured, so a reader can tell a slow
// host from a slow program in the spread report. The CPU loop stays in
// registers; the memory stream reads an array larger than a last-level
// cache, which other tenants' memory traffic slows where it does not slow
// the loop. Neither is ever used to normalize anything.
type envStamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	CPULoop    float64 `json:"cpu_loop_per_s"`
	MemGBps    float64 `json:"mem_stream_gb_per_s"`
}

func stamp() envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     metric.KernelVariant(),
		CPULoop:    cpuLoop(300 * time.Millisecond),
		MemGBps:    memStream(300 * time.Millisecond),
	}
}

var loopSink uint64

// cpuLoop runs a fixed integer-mixing loop for about d and returns how
// many iterations of 1<<16 steps it completed per second.
func cpuLoop(d time.Duration) float64 {
	x := uint64(0x9e3779b97f4a7c15)
	iters := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for range 1 << 16 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters++
	}
	loopSink = x
	return float64(iters) / time.Since(t0).Seconds()
}

// memStreamWords is the memory stream's array length: 64 MiB of words.
const memStreamWords = 8 << 20

// memStream sums a 64 MiB array repeatedly for about d and returns the
// bytes read per second, in GB/s.
func memStream(d time.Duration) float64 {
	a := make([]uint64, memStreamWords)
	for i := range a {
		a[i] = uint64(i)
	}
	var sum uint64
	passes := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for _, x := range a {
			sum += x
		}
		passes++
	}
	loopSink = sum
	return float64(passes*memStreamWords*8) / time.Since(t0).Seconds() / 1e9
}
