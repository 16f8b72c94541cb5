package wire

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
)

// TestClientConcurrentWriteSnapshot drives Write and Snapshot from two
// goroutines over one Client's connection to one replica. A response
// payload shares the connection's buffer with outgoing writes, so it
// must be decoded before the connection is unlocked; decoded after, a
// racing Write overwrites it ("bad response", and a data race under
// -race).
func TestClientConcurrentWriteSnapshot(t *testing.T) {
	g := sharegraph.Ring(3)
	cfg := loopbackConfig(t, g, "edge-indexed")
	startCluster(t, cfg)
	client, err := Dial(cfg, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const writes, snaps = 2000, 300
	const reg = sharegraph.Register("ring0")
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for v := 1; v <= writes; v++ {
			if err := client.Write(0, reg, core.Value(v)); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		last := core.Value(0)
		for i := 0; i < snaps; i++ {
			st, err := client.Snapshot(0)
			if err != nil {
				errs <- err
				return
			}
			// Writes on one connection apply in order, so successive
			// snapshots never see the register go back.
			if st[reg] < last {
				t.Errorf("snapshot %d: %s went back from %d to %d", i, reg, last, st[reg])
				return
			}
			last = st[reg]
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := client.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := client.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if st[reg] != writes {
		t.Fatalf("%s = %d after quiesce, want %d", reg, st[reg], writes)
	}
}
