package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dynautosar/internal/api"
)

const (
	// observePoll is the settle observer's poll period: well under a
	// millisecond, so it does not quantise settle latencies.
	observePoll = 200 * time.Microsecond
	// fallbackPoll bounds how long an operation goes unpolled while its
	// vehicles have not all answered (a launch failure settles without
	// any push).
	fallbackPoll = 5 * time.Millisecond
)

// settled is what the observer reports for one operation.
type settled struct {
	op       api.Operation
	at       time.Time
	timedOut bool
}

// waiter is one operation the observer watches on its shard.
type waiter struct {
	sh *shardNode
	id string
	// replies and want gate polling: the operation is polled every
	// observePoll once replies reaches want, every fallbackPoll before.
	replies  *atomic.Int64
	want     int64
	lastPoll time.Time
	deadline time.Time
	done     func(settled)
}

// observer watches operations settle in-process through each shard's
// Server.Operation. It never goes through HTTP, so it neither adds to
// the shards' request rate nor waits behind their rate limiter.
type observer struct {
	mu      sync.Mutex
	waiting []*waiter
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
}

func newObserver() *observer {
	o := &observer{kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
	go o.run()
	return o
}

func (o *observer) watch(w *waiter) {
	o.mu.Lock()
	o.waiting = append(o.waiting, w)
	o.mu.Unlock()
	select {
	case o.kick <- struct{}{}:
	default:
	}
}

func (o *observer) close() {
	close(o.stop)
	<-o.done
}

func (o *observer) run() {
	defer close(o.done)
	tick := time.NewTimer(observePoll)
	defer tick.Stop()
	var batch []*waiter
	for {
		o.mu.Lock()
		batch = append(batch[:0], o.waiting...)
		o.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-o.stop:
				return
			case <-o.kick:
				continue
			}
		}
		now := time.Now()
		var finished map[*waiter]bool
		for _, w := range batch {
			if w.replies.Load() < w.want && now.Sub(w.lastPoll) < fallbackPoll && now.Before(w.deadline) {
				continue
			}
			w.lastPoll = now
			op, ok := w.sh.srv.Operation(w.id)
			switch {
			case ok && op.Done:
				w.done(settled{op: op, at: time.Now()})
			case now.After(w.deadline):
				w.done(settled{op: op, at: now, timedOut: true})
			default:
				continue
			}
			if finished == nil {
				finished = make(map[*waiter]bool)
			}
			finished[w] = true
		}
		if finished != nil {
			o.mu.Lock()
			kept := o.waiting[:0]
			for _, w := range o.waiting {
				if !finished[w] {
					kept = append(kept, w)
				}
			}
			o.waiting = kept
			o.mu.Unlock()
		}
		tick.Reset(observePoll)
		select {
		case <-o.stop:
			return
		case <-tick.C:
		}
	}
}
