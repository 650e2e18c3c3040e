package core

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func admitDB(t *testing.T, limit int64) *Database {
	t.Helper()
	db, err := Open(Config{Path: ":memory:", MemoryLimit: limit, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestAdmitUnlimited: no budget, no gating.
func TestAdmitUnlimited(t *testing.T) {
	db := admitDB(t, -1)
	for i := 0; i < 100; i++ {
		release, _, err := db.admit.admit(1.0, 0, 100)
		if err != nil {
			t.Fatalf("admission gated an unlimited database: %v", err)
		}
		defer release()
	}
}

// TestAdmitFailFast: with depth 0 a query that does not fit is rejected
// immediately, and the slot frees on release.
func TestAdmitFailFast(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit(0.6, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.admit.admit(0.6, 0, 100); err == nil {
		t.Fatal("second 0.6 claim of a full budget admitted with depth 0")
	} else if !strings.Contains(err.Error(), "fail") {
		t.Fatalf("unexpected fail-fast error: %v", err)
	}
	r1()
	r2, _, err := db.admit.admit(0.6, 0, 100)
	if err != nil {
		t.Fatalf("claim after release rejected: %v", err)
	}
	r2()
}

// TestAdmitAlwaysOne: even a claim exceeding the whole budget admits
// when nothing else runs — serial progress beats deadlock.
func TestAdmitAlwaysOne(t *testing.T) {
	db := admitDB(t, 1)
	release, _, err := db.admit.admit(1.0, 0, 100)
	if err != nil {
		t.Fatalf("sole query rejected: %v", err)
	}
	release()
}

// TestAdmitQueueWaits: a waiter is admitted when the blocking query
// releases.
func TestAdmitQueueWaits(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit(0.8, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan func(), 1)
	go func() {
		r2, _, err := db.admit.admit(0.8, 8, 100)
		if err != nil {
			t.Errorf("queued claim rejected: %v", err)
		}
		admitted <- r2
	}()
	select {
	case <-admitted:
		t.Fatal("second 0.8 claim admitted while the first still holds")
	case <-time.After(50 * time.Millisecond):
	}
	r1()
	select {
	case r2 := <-admitted:
		r2()
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never admitted after release")
	}
}

// TestAdmitQueueFull: arrivals beyond the queue depth are rejected with
// the queue-full error while earlier waiters keep their place.
func TestAdmitQueueFull(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit(0.9, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const depth = 2
	started := make(chan struct{}, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			r, _, err := db.admit.admit(0.9, depth, 100)
			if err != nil {
				t.Errorf("waiter rejected: %v", err)
				return
			}
			r()
		}()
	}
	for i := 0; i < depth; i++ {
		<-started
	}
	// Wait until both goroutines are actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for {
		db.admit.mu.Lock()
		n := len(db.admit.queue)
		db.admit.mu.Unlock()
		if n == depth {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters queued", n, depth)
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := db.admit.admit(0.9, depth, 100); err == nil {
		t.Fatal("arrival beyond queue depth admitted")
	} else if !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("unexpected queue-full error: %v", err)
	}
	r1()
	wg.Wait()
}

// TestAdmitPriorityOrder: of two waiters, the higher-priority one is
// admitted first even though it arrived second.
func TestAdmitPriorityOrder(t *testing.T) {
	db := admitDB(t, 1<<20)
	r1, _, err := db.admit.admit(0.9, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	queueWaiter := func(prio int) {
		go func() {
			r, _, err := db.admit.admit(0.9, 8, prio)
			if err != nil {
				t.Errorf("waiter rejected: %v", err)
				return
			}
			order <- prio
			r()
		}()
		// Wait for the waiter to register before starting the next so
		// arrival order is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for {
			db.admit.mu.Lock()
			queued := false
			for _, w := range db.admit.queue {
				if w.priority == prio {
					queued = true
				}
			}
			db.admit.mu.Unlock()
			if queued {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter with priority %d never queued", prio)
			}
			time.Sleep(time.Millisecond)
		}
	}
	queueWaiter(100)
	queueWaiter(300)
	r1()
	if first := <-order; first != 300 {
		t.Fatalf("priority-100 waiter admitted before priority-300")
	}
	<-order
}
