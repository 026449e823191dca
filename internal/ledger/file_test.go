package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
)

// putFrames appends n distinct synthetic frames tagged with prefix and
// returns their addresses in append order.
func putFrames(t *testing.T, be *FileBackend, prefix string, n int) []Hash {
	t.Helper()
	hs := make([]Hash, n)
	for i := range hs {
		frame := []byte(fmt.Sprintf("%s-%04d-%s", prefix, i, bytes.Repeat([]byte{'x'}, i%97)))
		hs[i] = hashFrame(frame)
		if err := be.Put(hs[i], frame); err != nil {
			t.Fatalf("Put %s/%d: %v", prefix, i, err)
		}
	}
	return hs
}

// checkScanMatchesGet requires Scan to yield exactly the index in append
// order, each frame equal to what Get returns for its address.
func checkScanMatchesGet(t *testing.T, be *FileBackend) {
	t.Helper()
	var got []Hash
	err := be.Scan(func(h Hash, frame []byte) error {
		want, err := be.Get(h)
		if err != nil {
			return err
		}
		if !bytes.Equal(frame, want) || hashFrame(frame) != h {
			return fmt.Errorf("record %d (%s): Scan frame differs from Get", len(got), h.Short())
		}
		got = append(got, h)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	order := indexOrder(be)
	if len(got) != len(order) {
		t.Fatalf("Scan yielded %d records, order holds %d", len(got), len(order))
	}
	for i := range got {
		if got[i] != order[i] {
			t.Fatalf("Scan record %d is %s, order has %s", i, got[i].Short(), order[i].Short())
		}
	}
}

// rawRecord returns the on-disk bytes of h's record.
func rawRecord(t *testing.T, be *FileBackend, h Hash) []byte {
	t.Helper()
	frame, err := be.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(frame)))
	rec = append(rec, frame...)
	return append(rec, h[:]...)
}

// TestScanMatchesGetAcrossSegments: over several segments (sealed ones
// indexed concurrently at open), a record duplicated on disk in a sealed
// and in the final segment, and appends made after reopen, Scan yields the
// same (address, frame) sequence as Get over the index, and the first
// occurrence of the duplicate keeps its index entry.
func TestScanMatchesGetAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	const segSize = 1 << 12
	be, err := OpenFile(dir, segSize)
	if err != nil {
		t.Fatal(err)
	}
	hs := putFrames(t, be, "a", 120)
	checkScanMatchesGet(t, be)
	dup := rawRecord(t, be, hs[3])
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want at least 3 segments, got %d", len(segs))
	}
	for _, seg := range []string{segs[1], segs[len(segs)-1]} {
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(dup); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	be2, err := OpenFile(dir, segSize)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer be2.Close()
	if be2.Len() != len(hs) {
		t.Fatalf("reopen indexed %d records, want %d", be2.Len(), len(hs))
	}
	if loc := be2.index[hs[3]]; loc.seg != 0 {
		t.Fatalf("duplicate record indexed at segment %d, want its first occurrence in 0", loc.seg)
	}
	checkScanMatchesGet(t, be2)
	putFrames(t, be2, "b", 60)
	if be2.Len() != len(hs)+60 {
		t.Fatalf("after appends: %d records, want %d", be2.Len(), len(hs)+60)
	}
	checkScanMatchesGet(t, be2)
}

// TestGetConcurrentWithPutAndRoll runs Get and Scan against a writer that
// keeps rolling segments and syncing; under -race it guards the lock-free
// pread and the tail that Put, Sync, roll, Get and Scan share.
func TestGetConcurrentWithPutAndRoll(t *testing.T) {
	be, err := OpenFile(t.TempDir(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	seed := putFrames(t, be, "seed", 20)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			frame := []byte(fmt.Sprintf("w-%04d", i))
			if err := be.Put(hashFrame(frame), frame); err != nil {
				errs <- err
				return
			}
			if i%25 == 24 {
				if err := be.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := seed[(i+r)%len(seed)]
				frame, err := be.Get(h)
				if err == nil && hashFrame(frame) != h {
					err = fmt.Errorf("Get(%s) returned another record", h.Short())
				}
				if err == nil && i%50 == 0 {
					err = be.Scan(func(Hash, []byte) error { return nil })
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkScanMatchesGet(t, be)
}

// abandon drops be the way a killed process does: the segment handles go
// away and whatever is still in the tail is lost.
func abandon(be *FileBackend) {
	be.mu.Lock()
	defer be.mu.Unlock()
	for _, sg := range be.segs {
		sg.f.Close()
	}
	be.segs, be.closed = nil, true
}

// reopenOrder reopens dir and returns the addresses it holds, in order.
func reopenOrder(t *testing.T, dir string, segSize int64) []Hash {
	t.Helper()
	be, err := OpenFile(dir, segSize)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer be.Close()
	return indexOrder(be)
}

// requirePrefix fails unless got is a prefix of appended holding at least
// its first synced records.
func requirePrefix(t *testing.T, got, appended []Hash, synced int) {
	t.Helper()
	if len(got) < synced || len(got) > len(appended) {
		t.Fatalf("got %d records: want between the %d synced and the %d appended", len(got), synced, len(appended))
	}
	for i := range got {
		if got[i] != appended[i] {
			t.Fatalf("record %d is %s, append order has %s", i, got[i].Short(), appended[i].Short())
		}
	}
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestAbandonLeavesSyncedPrefix: a log abandoned without Close at any point
// reopens as a prefix of the append order that holds every record put
// before the last successful Sync, across at least three segments.
func TestAbandonLeavesSyncedPrefix(t *testing.T) {
	const segSize = 1 << 11
	for _, cut := range []int{0, 1, 24, 25, 26, 99, 150} {
		dir := t.TempDir()
		be, err := OpenFile(dir, segSize)
		if err != nil {
			t.Fatal(err)
		}
		var appended []Hash
		synced := 0
		for i := 0; i < cut; i++ {
			appended = append(appended, putFrames(t, be, fmt.Sprintf("c%03d", i), 1)...)
			if i%25 == 24 {
				if err := be.Sync(); err != nil {
					t.Fatal(err)
				}
				synced = len(appended)
			}
		}
		abandon(be)
		if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); cut == 150 && len(segs) < 3 {
			t.Fatalf("want at least 3 segments, got %d", len(segs))
		}
		requirePrefix(t, reopenOrder(t, dir, segSize), appended, synced)
	}
}

// TestGetAndScanServeTheTail: records still in the tail, not yet on disk,
// come back from Get and Scan byte-identical to the frames put; Scan writes
// the tail out first.
func TestGetAndScanServeTheTail(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	hs := putFrames(t, be, "a", 40)
	if err := be.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := be.segName(0)
	onDisk := fileSize(t, seg)
	frames := make(map[Hash][]byte)
	for i := 0; i < 30; i++ {
		frame := []byte(fmt.Sprintf("tail-%04d-%s", i, bytes.Repeat([]byte{'y'}, i)))
		h := hashFrame(frame)
		if err := be.Put(h, frame); err != nil {
			t.Fatal(err)
		}
		frames[h] = frame
		hs = append(hs, h)
	}
	if got := fileSize(t, seg); got != onDisk {
		t.Fatalf("unsynced puts reached the file: %d bytes, want %d", got, onDisk)
	}
	for h, want := range frames {
		got, err := be.Get(h)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) from the tail = %q, %v; want %q", h.Short(), got, err, want)
		}
	}
	var scanned []Hash
	err = be.Scan(func(h Hash, frame []byte) error {
		if want, ok := frames[h]; ok && !bytes.Equal(frame, want) {
			return fmt.Errorf("Scan(%s) = %q, want %q", h.Short(), frame, want)
		}
		scanned = append(scanned, h)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePrefix(t, scanned, hs, len(hs))
	be.mu.Lock()
	size := be.segs[0].size
	be.mu.Unlock()
	if got := fileSize(t, seg); got != size {
		t.Fatalf("after Scan the file holds %d bytes, want the whole %d", got, size)
	}
	checkScanMatchesGet(t, be)
}

// TestRollWritesTheTail: the Put that rolls the log first writes the tail
// into the retiring segment, so a sealed segment on disk is whole even if
// nothing was ever synced.
func TestRollWritesTheTail(t *testing.T) {
	const segSize = 1 << 10
	dir := t.TempDir()
	be, err := OpenFile(dir, segSize)
	if err != nil {
		t.Fatal(err)
	}
	var appended []Hash
	for i := 0; len(be.segs) < 3; i++ {
		appended = append(appended, putFrames(t, be, fmt.Sprintf("r%03d", i), 1)...)
	}
	be.mu.Lock()
	sealed := []int64{be.segs[0].size, be.segs[1].size}
	inSealed := 0
	for _, h := range appended {
		if be.index[h].seg < 2 {
			inSealed++
		}
	}
	be.mu.Unlock()
	for i, want := range sealed {
		if got := fileSize(t, be.segName(i)); got != want {
			t.Fatalf("sealed segment %d holds %d bytes on disk, want %d", i, got, want)
		}
	}
	abandon(be)
	requirePrefix(t, reopenOrder(t, dir, segSize), appended, inSealed)
}

// TestTailThresholdWritesWholeRecords: a Put that would grow the tail past
// tailMax first writes the tail, whole records only, and a record larger
// than tailMax on its own is written whole at the next write.
func TestTailThresholdWritesWholeRecords(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenFile(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg := be.segName(0)
	put := func(tag byte, n int) Hash {
		frame := bytes.Repeat([]byte{tag}, n)
		h := hashFrame(frame)
		if err := be.Put(h, frame); err != nil {
			t.Fatal(err)
		}
		return h
	}
	rec := func(n int) int64 { return int64(4 + n + wire32) }
	const third = tailMax / 3
	var appended []Hash
	for tag := byte('a'); tag < 'd'; tag++ {
		appended = append(appended, put(tag, third-100))
	}
	if got := fileSize(t, seg); got != int64(len(segMagic)) {
		t.Fatalf("three records under tailMax reached the file: %d bytes", got)
	}
	appended = append(appended, put('d', third)) // would pass tailMax
	if got, want := fileSize(t, seg), int64(len(segMagic))+3*rec(third-100); got != want {
		t.Fatalf("after crossing tailMax the file holds %d bytes, want the %d of three whole records", got, want)
	}
	appended = append(appended, put('e', tailMax+1000)) // larger than tailMax alone
	appended = append(appended, put('f', 10))
	if got, want := fileSize(t, seg), int64(len(segMagic))+3*rec(third-100)+rec(third)+rec(tailMax+1000); got != want {
		t.Fatalf("the oversized record was not written whole: file holds %d bytes, want %d", got, want)
	}
	abandon(be)
	got := reopenOrder(t, dir, 0)
	requirePrefix(t, got, appended, 5)
	if len(got) != 5 {
		t.Fatalf("reopen holds %d records, want the 5 written", len(got))
	}
}

// TestFsyncFailureIsSticky: once a tail write or an fsync fails, every later
// Put and Sync returns that error, even after the cause is gone, until the
// log is reopened; what reopens is exactly the prefix synced before the
// failure. A tail write is made to fail by closing the active segment's
// handle; an fsync alone by swapping in a /dev/null handle, which absorbs
// writes but refuses fsync. The backend is then healed with a fresh handle.
func TestFsyncFailureIsSticky(t *testing.T) {
	// breakActive breaks the active handle and returns a function that
	// installs a working one again.
	breakActive := func(t *testing.T, be *FileBackend, failWrite bool) func() {
		t.Helper()
		be.mu.Lock()
		defer be.mu.Unlock()
		i := len(be.segs) - 1
		dead := be.segs[i].f
		dead.Close()
		if !failWrite {
			f, err := os.OpenFile(os.DevNull, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			be.segs[i].f, dead = f, f
		}
		name := be.segName(i)
		return func() {
			dead.Close()
			f, err := os.OpenFile(name, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			be.mu.Lock()
			be.segs[i].f = f
			be.mu.Unlock()
		}
	}
	checkPoisoned := func(t *testing.T, be *FileBackend, first error) {
		t.Helper()
		if err := be.Sync(); err != first {
			t.Fatalf("Sync after a failure: %v, want the sticky %v", err, first)
		}
		frame := []byte("after the failure")
		if err := be.Put(hashFrame(frame), frame); err != first {
			t.Fatalf("Put after a failure: %v, want the sticky %v", err, first)
		}
		if err := be.Close(); err != first {
			t.Fatalf("Close after a failure: %v, want the sticky %v", err, first)
		}
	}
	reopen := func(t *testing.T, dir string, segSize int64, want []Hash) {
		t.Helper()
		be, err := OpenFile(dir, segSize)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer be.Close()
		if be.Len() != len(want) {
			t.Fatalf("reopen: %d records, want the %d synced", be.Len(), len(want))
		}
		requirePrefix(t, indexOrder(be), want, len(want))
		putFrames(t, be, "reopened", 3)
		if err := be.Sync(); err != nil {
			t.Fatalf("Sync after reopen: %v", err)
		}
	}

	for _, c := range []struct {
		name      string
		segSize   int64
		prefix    int  // records put and synced before the failure
		more      int  // records put after the sync, before the handle breaks
		failWrite bool // close the handle (the tail write fails) instead of /dev/null (the fsync fails)
		fail      func(be *FileBackend) error
		want      error
	}{
		// Sync's fsync fails after its tail write went through.
		{"sync", 0, 4, 3, false, (*FileBackend).Sync, syscall.EINVAL},
		// Sync's tail write fails.
		{"sync-tail-write", 0, 4, 3, true, (*FileBackend).Sync, os.ErrClosed},
		// A roll's fsync of the retiring segment fails. Segment 0 passes the
		// 64-byte threshold with the second record, so the third rolls.
		{"roll", 64, 1, 1, false, putOne, syscall.EINVAL},
		// A roll's write of the retiring segment's tail fails.
		{"roll-tail-write", 64, 1, 1, true, putOne, os.ErrClosed},
		// A Put that would pass tailMax writes the tail, and the write fails.
		{"threshold-tail-write", 0, 2, 0, true, putPastTailMax, os.ErrClosed},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.failWrite && runtime.GOOS != "linux" {
				t.Skip("relies on Linux refusing to fsync /dev/null")
			}
			dir := t.TempDir()
			be, err := OpenFile(dir, c.segSize)
			if err != nil {
				t.Fatal(err)
			}
			synced := putFrames(t, be, "a", c.prefix)
			if err := be.Sync(); err != nil {
				t.Fatal(err)
			}
			putFrames(t, be, "b", c.more)
			heal := breakActive(t, be, c.failWrite)
			first := c.fail(be)
			if !errors.Is(first, c.want) {
				t.Fatalf("failure = %v, want %v", first, c.want)
			}
			heal()
			checkPoisoned(t, be, first)
			reopen(t, dir, c.segSize, synced)
		})
	}
}

// putOne puts one fresh record.
func putOne(be *FileBackend) error {
	frame := []byte("one more record")
	return be.Put(hashFrame(frame), frame)
}

// putPastTailMax puts records of tailMax/4 bytes until one fails or the tail
// must have been written.
func putPastTailMax(be *FileBackend) error {
	for i := 0; i < 5; i++ {
		frame := bytes.Repeat([]byte{byte('k' + i)}, tailMax/4)
		if err := be.Put(hashFrame(frame), frame); err != nil {
			return err
		}
	}
	return nil
}

// TestCloseReportsHandleCloseErrors: after a clean write and fsync, Close
// returns the first error from closing the segment handles instead of
// dropping it.
func TestCloseReportsHandleCloseErrors(t *testing.T) {
	be, err := OpenFile(t.TempDir(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for len(be.segs) < 2 {
		putFrames(t, be, fmt.Sprintf("s%d", be.Len()), 1)
	}
	be.segs[0].f.Close() // the sealed segment's handle fails its second close
	if err := be.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close = %v, want the sealed segment's close error", err)
	}
}
