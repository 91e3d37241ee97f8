package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stream is one request class offered open-loop at a fixed rate over its
// own connections: request i is due at i/rate from the phase start, and
// whichever connection is free takes the next due request. A request that
// finds every connection busy waits, and its latency still counts from
// its due time, so a stall is charged to every request it delays
// (no coordinated omission).
type stream struct {
	class string
	path  string
	rate  float64
	conns []*conn
	// pick returns the item index and body for the phase's i-th request.
	pick func(i int) (item int, body []byte)
	// after, when set, sees each successful response before the
	// connection takes its next request (the ingest stream uses it to
	// publish the last acked event time).
	after func(item int, body []byte)
}

// sample is one request's timeline, in nanoseconds from the phase start.
type sample struct {
	item   int
	due    int64
	free   int64 // when a connection was free to take it
	sent   int64
	done   int64
	status int
	resp   []byte
	err    error
}

func (s *sample) ok() bool { return s.err == nil && s.status == 200 }

// latencyMs is the time from due to response.
func (s *sample) latencyMs() float64 { return float64(s.done-s.due) / 1e6 }

// latenessMs is how late the generator itself sent the request: the time
// from when it could have gone (due, or the connection freeing up) to when
// it went. Waiting for a busy connection is backlog, not lateness.
func (s *sample) latenessMs() float64 { return float64(s.sent-max(s.due, s.free)) / 1e6 }

// backlogMs is how long a due request waited for a free connection.
func (s *sample) backlogMs() float64 { return float64(max(0, s.free-s.due)) / 1e6 }

// timerSlackNs tightens the kernel's timer slack for the sending threads
// so paced sleeps wake within microseconds instead of the default 50µs.
const timerSlackNs = 1000

// sleepUntil blocks the calling OS thread until the monotonic offset t
// (from base). Go's runtime timers wake on a ~1ms granularity here, far
// too coarse to pace sub-millisecond schedules, so the pacing threads
// sleep in nanosleep(2) directly.
func sleepUntil(base time.Time, t int64) {
	for {
		d := t - int64(time.Since(base))
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// runPhase offers every stream for dur and returns each stream's samples
// in due order.
func runPhase(streams []*stream, dur time.Duration) [][]sample {
	// The generator's own garbage collection would steal a core from the
	// shared box mid-window: collect before the window and not during it
	// (a window allocates a few MB at most).
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([][]sample, len(streams))
	var wg sync.WaitGroup
	var mu sync.Mutex
	base := time.Now()
	for si, st := range streams {
		var next atomic.Int64
		interval := 1e9 / st.rate
		for _, c := range st.conns {
			wg.Add(1)
			go func(si int, st *stream, c *conn) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, timerSlackNs, 0)
				var mine []sample
				for {
					i := next.Add(1) - 1
					due := int64(float64(i) * interval)
					if due >= int64(dur) {
						break
					}
					s := sample{due: due, free: int64(time.Since(base))}
					sleepUntil(base, due)
					item, body := st.pick(int(i))
					s.item = item
					s.sent = int64(time.Since(base))
					s.status, s.resp, s.err = c.post(st.path, body)
					s.done = int64(time.Since(base))
					if s.err != nil {
						// A broken connection is a failed request; reconnect
						// so the stream keeps its connection count.
						if nc, err := dial(c.addr); err == nil {
							c.Close()
							*c = *nc
						}
					} else if st.after != nil && s.status == 200 {
						st.after(item, s.resp)
					}
					mine = append(mine, s)
				}
				mu.Lock()
				out[si] = append(out[si], mine...)
				mu.Unlock()
			}(si, st, c)
		}
	}
	wg.Wait()
	for _, ss := range out {
		sortByDue(ss)
	}
	return out
}

func sortByDue(ss []sample) {
	// Two senders interleave, so the merge is nearly sorted; insertion
	// sort is linear on it.
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].due < ss[j-1].due; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// classStats summarizes one stream's samples in one phase.
type classStats struct {
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	TailPct   float64 `json:"tail_pct"`
	TailMs    float64 `json:"tail_ms"`
	MaxMs     float64 `json:"max_ms"`
	// LatenessP99Ms is the generator's own sending lateness; LatenessGrows
	// and BacklogGrows apply the growth rule to lateness and to the wait
	// for a free connection.
	LatenessP99Ms float64 `json:"lateness_p99_ms"`
	LatenessGrows bool    `json:"lateness_grows"`
	BacklogGrows  bool    `json:"backlog_grows"`
	latSorted     []float64
}

// latenessSlackMs is the growth slack for generator lateness: a window
// whose last third runs this much later (90th percentile) than its first
// third is drifting, not jittering.
const latenessSlackMs = 2.0

// summarize counts and times a stream's samples; failed requests count
// as missing any latency limit, so they enter the percentiles as +Inf.
// backlogSlackMs is the growth slack for the wait for a free connection.
func summarize(ss []sample, backlogSlackMs float64) classStats {
	cs := classStats{Attempted: len(ss)}
	lat := make([]float64, 0, len(ss))
	late := make([]float64, 0, len(ss))
	back := make([]float64, 0, len(ss))
	for i := range ss {
		s := &ss[i]
		late = append(late, s.latenessMs())
		back = append(back, s.backlogMs())
		if s.ok() {
			cs.Succeeded++
			lat = append(lat, s.latencyMs())
		} else {
			cs.Failed++
			lat = append(lat, inf)
		}
	}
	cs.latSorted = sortedCopy(lat)
	if len(lat) > 0 {
		cs.P50Ms = quantile(cs.latSorted, 0.5)
		cs.P90Ms = quantile(cs.latSorted, 0.9)
		cs.P99Ms = quantile(cs.latSorted, 0.99)
		cs.TailPct, cs.TailMs, _ = tail(cs.latSorted)
		cs.MaxMs = cs.latSorted[len(cs.latSorted)-1]
		cs.LatenessP99Ms = quantile(sortedCopy(late), 0.99)
	}
	cs.LatenessGrows = grows(late, latenessSlackMs)
	cs.BacklogGrows = grows(back, backlogSlackMs)
	return cs
}
