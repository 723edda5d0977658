package main

import (
	"container/heap"
	"math"
	"runtime"
	"sort"
	"time"
)

// On a few vCPUs of a machine shared with other tenants, host speed moves
// by 10–30% within seconds and drifts over minutes, with what the tenants
// do to the shared caches and memory. A fixed loop of benchmark-own code,
// timed right before and right after each repetition, moves with it, so
// every timing is reported in reference seconds:
//
//	reference seconds = host seconds × calibRefS / calibration seconds
//
// where the calibration time is the mean of the two loops around the
// repetition. The loop runs no program code, so a change to the program
// moves reference times by the same share as host times; only the host's
// drift is divided out.
const calibRefS = 0.3

// calibrate collects the heap, then times the calibration loop. The loop
// mixes what the program's hot paths do: map updates, short-lived
// allocations, a binary heap of pointers and a sort (the simulator and the
// FaaS model), and dense float products through a sigmoid (the BNN). Its
// live data stays near 2 MB, so it adds little to max_rss_mb.
func calibrate() float64 {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < calibPasses; i++ {
		calibMap()
		calibEvents()
		calibDense()
	}
	return time.Since(t0).Seconds()
}

// calibPasses makes one calibration last about 0.3 s. Host speed is noisy
// from one tenth of a second to the next, so a shorter loop would add more
// noise to each scaled time than it takes out.
const calibPasses = 2

// calibSink takes a value from each loop so the compiler keeps their work.
var calibSink int

// calibMap updates a 16k-entry map, then sorts a fresh slice of 200k
// floats.
func calibMap() {
	m := make(map[uint32]uint32)
	for i := uint32(0); i < 2_000_000; i++ {
		m[(i*7919)%16381] += i
	}
	xs := make([]float64, 0, 200_000)
	for i := 0; i < 200_000; i++ {
		xs = append(xs, float64((i*48271)%2147483647))
	}
	sort.Float64s(xs)
	s := int(xs[len(xs)/2])
	for k, v := range m {
		s += int(k ^ v)
	}
	calibSink += s
}

type calibEvent struct {
	t  float64
	id int
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].t < q[j].t }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibEvents is a toy event loop: it pops the earliest of 2048 pending
// events, appends its time to a per-key history, and schedules a freshly
// allocated successor.
func calibEvents() {
	x := uint64(88172645463325252)
	rand := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%1_000_000) / 1e6
	}
	q := make(calibQueue, 0, 2048)
	for i := 0; i < 2048; i++ {
		q = append(q, &calibEvent{t: rand(), id: i})
	}
	heap.Init(&q)
	hist := make(map[int][]float64)
	for n := 0; n < 150_000; n++ {
		e := heap.Pop(&q).(*calibEvent)
		k := e.id % 4096
		h := append(hist[k], e.t)
		if len(h) > 16 {
			h = append([]float64(nil), h[8:]...)
		}
		hist[k] = h
		heap.Push(&q, &calibEvent{t: e.t + rand(), id: e.id + 7})
	}
	calibSink += len(hist)
}

// calibDense repeatedly multiplies a 64-vector by a 64×64 matrix and
// passes the result through a sigmoid, as an LSTM gate does.
func calibDense() {
	const n = 64
	w := make([]float64, n*n)
	for i := range w {
		w[i] = float64((i*31)%97)/97 - 0.5
	}
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	for it := 0; it < 8000; it++ {
		for r := range y {
			s := 0.0
			for c, v := range w[r*n : r*n+n] {
				s += v * x[c]
			}
			y[r] = 1 / (1 + math.Exp(-s))
		}
		x, y = y, x
	}
	calibSink += int(x[0] * 1e6)
}
