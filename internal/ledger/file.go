package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FileBackend is the daemon's durable backend: an append-only segment log.
// Each segment file starts with an 8-byte magic and holds a sequence of
//
//	u32 frame length | frame bytes | 32-byte SHA-256 of the frame
//
// records. An in-memory hash→offset index built at open serves Get with one
// pread; Put appends to the active segment and rolls to a new file past
// SegmentSize. Sync fsyncs the active segment (segment creation fsyncs the
// directory), which is the durability point the daemon's fsync-before-ack
// invariant rests on.
//
// Crash tolerance at open: a torn record at the tail of the LAST segment —
// the footprint of a crash mid-append — is truncated away and appending
// resumes at the cut. So is a last segment shorter than its magic whose
// bytes are a prefix of it, the footprint of a crash mid-roll: the magic is
// rewritten. A short or corrupt record anywhere else cannot be a crash
// artifact of an append-only writer and fails the open with ErrCorrupt.
type FileBackend struct {
	mu         sync.Mutex
	dir        string
	segSize    int64
	segs       []*os.File // read handles, ordinal order; last is the active segment
	activeSize int64
	index      map[Hash]recLoc
	order      []Hash
	dirty      bool
	writeGen   uint64 // bumped per Put; lets Sync clear dirty without holding the lock through the fsync
	closed     bool
}

type recLoc struct {
	seg int
	off int64 // offset of the frame bytes (past the length prefix)
	n   int   // frame length
}

// DefaultSegmentSize is the roll threshold for new FileBackends.
const DefaultSegmentSize = 64 << 20

// segMagic opens every segment file.
var segMagic = []byte("DLSLEDG1")

// ErrCorrupt reports an unreadable record that cannot be a torn tail.
var ErrCorrupt = errors.New("ledger: corrupt segment record")

// maxFrameLen bounds a single record; a length prefix beyond it is corrupt.
const maxFrameLen = 1 << 30

// OpenFile opens (creating if needed) the segment log in dir. segSize <= 0
// means DefaultSegmentSize.
func OpenFile(dir string, segSize int64) (*FileBackend, error) {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	b := &FileBackend{dir: dir, segSize: segSize, index: make(map[Hash]recLoc)}
	for i, name := range names {
		f, err := os.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			b.closeAll()
			return nil, err
		}
		b.segs = append(b.segs, f)
		last := i == len(names)-1
		size, err := b.loadSegment(i, f, last)
		if err != nil {
			b.closeAll()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if last {
			b.activeSize = size
		}
	}
	if len(b.segs) == 0 {
		if err := b.rollLocked(); err != nil {
			b.closeAll()
			return nil, err
		}
	}
	return b, nil
}

// loadSegment indexes one segment, truncating a torn tail iff last.
func (b *FileBackend) loadSegment(seg int, f *os.File, last bool) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := info.Size()
	hdr := make([]byte, len(segMagic))
	n, err := io.ReadFull(f, hdr)
	if last && (err == io.EOF || err == io.ErrUnexpectedEOF) && bytes.Equal(hdr[:n], segMagic[:n]) {
		// A roll interrupted between creating the file and writing (or
		// fsyncing) its magic: a torn tail holding no records. Finish the
		// roll the crash cut short.
		if err := writeSegmentHeader(f, b.dir); err != nil {
			return 0, err
		}
		return int64(len(segMagic)), nil
	}
	if err != nil || !bytes.Equal(hdr, segMagic) {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	off := int64(len(segMagic))
	var lenBuf [4]byte
	truncateAt := func(at int64) (int64, error) {
		if !last {
			return 0, fmt.Errorf("%w: torn record at offset %d of a non-final segment", ErrCorrupt, at)
		}
		if err := f.Truncate(at); err != nil {
			return 0, err
		}
		return at, nil
	}
	for off < size {
		if size-off < 4 {
			return truncateAt(off)
		}
		if _, err := f.ReadAt(lenBuf[:], off); err != nil {
			return 0, err
		}
		n := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		if n > maxFrameLen {
			return 0, fmt.Errorf("%w: frame length %d at offset %d", ErrCorrupt, n, off)
		}
		recEnd := off + 4 + n + wire32
		if recEnd > size {
			return truncateAt(off)
		}
		buf := make([]byte, n+wire32)
		if _, err := f.ReadAt(buf, off+4); err != nil {
			return 0, err
		}
		var h Hash
		copy(h[:], buf[n:])
		if hashFrame(buf[:n]) != h {
			// A complete-looking record with a bad digest at the very tail of
			// the final segment is still a crash footprint: the length prefix
			// can land before the frame bytes when nothing was fsynced.
			if last && recEnd == size {
				return truncateAt(off)
			}
			return 0, fmt.Errorf("%w: digest mismatch at offset %d", ErrCorrupt, off)
		}
		if _, ok := b.index[h]; !ok {
			b.index[h] = recLoc{seg: seg, off: off + 4, n: int(n)}
			b.order = append(b.order, h)
		}
		off = recEnd
	}
	return off, nil
}

const wire32 = 32 // stored digest width

// segName formats the ordinal segment path.
func (b *FileBackend) segName(i int) string {
	return filepath.Join(b.dir, fmt.Sprintf("%08d.seg", i))
}

// rollLocked fsyncs and retires the active segment and starts the next one.
// A failed roll removes the file it created, so a retried roll can create
// the same name again.
func (b *FileBackend) rollLocked() error {
	if n := len(b.segs); n > 0 {
		if err := b.segs[n-1].Sync(); err != nil {
			return err
		}
	}
	name := b.segName(len(b.segs))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegmentHeader(f, b.dir); err != nil {
		return errors.Join(err, f.Close(), os.Remove(name))
	}
	b.segs = append(b.segs, f)
	b.activeSize = int64(len(segMagic))
	return nil
}

// writeSegmentHeader writes the magic at the head of a segment and fsyncs
// dir, which makes the segment's file name itself durable.
func writeSegmentHeader(f *os.File, dir string) error {
	if _, err := f.WriteAt(segMagic, 0); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}

// Put appends one record to the active segment.
func (b *FileBackend) Put(h Hash, frame []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("ledger: backend closed")
	}
	if _, ok := b.index[h]; ok {
		return nil
	}
	if b.activeSize >= b.segSize {
		if err := b.rollLocked(); err != nil {
			return err
		}
	}
	seg := len(b.segs) - 1
	f := b.segs[seg]
	buf := make([]byte, 0, 4+len(frame)+wire32)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(frame)))
	buf = append(buf, frame...)
	buf = append(buf, h[:]...)
	if _, err := f.WriteAt(buf, b.activeSize); err != nil {
		return err
	}
	b.index[h] = recLoc{seg: seg, off: b.activeSize + 4, n: len(frame)}
	b.order = append(b.order, h)
	b.activeSize += int64(len(buf))
	b.dirty = true
	b.writeGen++
	return nil
}

// Get preads the envelope for h.
func (b *FileBackend) Get(h Hash) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("ledger: backend closed")
	}
	loc, ok := b.index[h]
	if !ok {
		return nil, fmt.Errorf("ledger: record %s not found", h.Short())
	}
	frame := make([]byte, loc.n)
	if _, err := b.segs[loc.seg].ReadAt(frame, loc.off); err != nil {
		return nil, err
	}
	return frame, nil
}

// Scan visits every record in append order.
func (b *FileBackend) Scan(fn func(h Hash, frame []byte) error) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("ledger: backend closed")
	}
	order := append([]Hash(nil), b.order...)
	b.mu.Unlock()
	for _, h := range order {
		frame, err := b.Get(h)
		if err != nil {
			return err
		}
		if err := fn(h, frame); err != nil {
			return err
		}
	}
	return nil
}

// Sync fsyncs the active segment. The fsync itself runs outside the backend
// lock: Sync is the settle-path durability barrier, and a pipelined stream
// appends the next load's evidence while the previous load's settle syncs —
// holding the lock through a multi-millisecond fsync would serialize the
// two. A Put racing the fsync is at worst additionally durable; dirty is
// only cleared when no Put landed while the fsync ran.
func (b *FileBackend) Sync() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("ledger: backend closed")
	}
	if !b.dirty {
		b.mu.Unlock()
		return nil
	}
	f := b.segs[len(b.segs)-1]
	gen := b.writeGen
	b.mu.Unlock()
	if err := f.Sync(); err != nil {
		return err
	}
	b.mu.Lock()
	if b.writeGen == gen && !b.closed {
		b.dirty = false
	}
	b.mu.Unlock()
	return nil
}

// Close fsyncs and releases every segment handle.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	var first error
	if b.dirty {
		first = b.segs[len(b.segs)-1].Sync()
	}
	b.closeAll()
	b.closed = true
	return first
}

func (b *FileBackend) closeAll() {
	for _, f := range b.segs {
		_ = f.Close()
	}
	b.segs = nil
}

// Len reports the number of indexed records.
func (b *FileBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.order)
}
