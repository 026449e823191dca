package ledger

import (
	"bufio"
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
// Each segment file starts with an 8-byte magic naming its format and holds
// a sequence of
//
//	u32 frame length | frame bytes | 32-byte SHA-256 of the frame
//
// records. An in-memory hash→offset index built at open serves Get with one
// pread; Forget drops entries from it, and the records it names stay in the
// files for the next open to index. Put assigns each record its
// final offset in the active segment but only appends it to an in-memory
// tail; the tail reaches the file in one write, in append order, at the next
// Sync (before its fsync), segment roll, Scan or Close, or when it would
// pass tailMax. The file is therefore always a record-aligned prefix of the
// append sequence, and a Get of a record still in the tail is served from
// memory. Put rolls to a new file past SegmentSize. Sync fsyncs the active
// segment (segment creation fsyncs the directory), which is the durability
// point the daemon's fsync-before-ack invariant rests on. The first failed
// tail write or fsync is sticky: every later Put and Sync returns it until
// the log is reopened, because a retried fsync can report success for pages
// the kernel already dropped.
//
// Format versions: segments are written as DLSLEDG3 (FormatNormalized).
// A DLSLEDG1 segment, written before rounds were seeded by generation and
// journaled, and a DLSLEDG2 one, written before bills and load acks were
// normalized, open the same way, and Format reports each record's;
// nothing is appended to either: the first Put rolls to a new segment. A
// literal payload is valid in every format, so one reader serves all three.
//
// Crash tolerance at open: a torn record at the tail of the LAST segment —
// the footprint of a crash mid-append — is truncated away and appending
// resumes at the cut. So is a last segment shorter than its magic whose
// bytes are a prefix of it, the footprint of a crash mid-roll: the magic is
// rewritten. A short or corrupt record anywhere else cannot be a crash
// artifact of an append-only writer and fails the open with ErrCorrupt.
type FileBackend struct {
	mu       sync.Mutex
	dir      string
	segSize  int64
	segs     []segment       // ordinal order; last is the active segment
	index    map[Hash]recLoc // records not forgotten, at their first occurrence
	dirty    bool
	tail     []byte // records appended to the active segment but not yet written, reused
	writeGen uint64 // bumped per Put; lets Sync clear dirty without holding the lock through the fsync
	syncErr  error  // first failed tail write or fsync, sticky until reopen
	closed   bool
}

// segment is one segment file and the length of its valid records.
type segment struct {
	f      *os.File
	size   int64
	format int // FormatLegacy, FormatJournaled or FormatNormalized
}

type recLoc struct {
	seg int
	off int64 // offset of the frame bytes (past the length prefix)
	n   int   // frame length
}

// DefaultSegmentSize is the roll threshold for new FileBackends.
const DefaultSegmentSize = 64 << 20

// segMagic opens every segment file written; an older format's magic
// differs in the last byte only, the format's number.
var segMagic = []byte("DLSLEDG3")

// segFormat returns the format a segment magic names, or 0.
func segFormat(hdr []byte) int {
	if len(hdr) != len(segMagic) || !bytes.Equal(hdr[:len(hdr)-1], segMagic[:len(segMagic)-1]) {
		return 0
	}
	if f := int(hdr[len(hdr)-1] - '0'); f >= FormatLegacy && f <= FormatNormalized {
		return f
	}
	return 0
}

// ErrCorrupt reports an unreadable record that cannot be a torn tail.
var ErrCorrupt = errors.New("ledger: corrupt segment record")

// maxFrameLen bounds a single record; a length prefix beyond it is corrupt.
const maxFrameLen = 1 << 30

// readBufSize is the read-ahead of one sequential segment pass.
const readBufSize = 1 << 20

// tailMax bounds the unwritten tail: a Put that would grow it past tailMax
// writes it out first.
const tailMax = 1 << 20

// OpenFile opens (creating if needed) the segment log in dir. segSize <= 0
// means DefaultSegmentSize.
func OpenFile(dir string, segSize int64) (*FileBackend, error) {
	return openFile(dir, segSize, nil)
}

// openFile is OpenFile that, if st is not nil, opens the log as st's
// backend: st.be is set before the first record is read, so that st can
// forget records during the scan, and st wires every record the backend
// indexes, in append order, as it indexes it (see loadAll).
func openFile(dir string, segSize int64, st *Store) (*FileBackend, error) {
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
	for _, name := range names {
		f, err := os.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			return nil, errors.Join(err, b.closeAll())
		}
		b.segs = append(b.segs, segment{f: f})
	}
	var visit func(h Hash, frame []byte) error
	if st != nil {
		st.be, visit = b, st.ingestFrame
	}
	if err := b.loadAll(names, visit); err != nil {
		return nil, errors.Join(err, b.closeAll())
	}
	if len(b.segs) == 0 {
		if err := b.rollLocked(); err != nil {
			return nil, errors.Join(err, b.closeAll())
		}
	}
	return b, nil
}

// segRec is one intact record found by a segment pass.
type segRec struct {
	h   Hash
	loc recLoc
}

// loadChunk is a run of whole records of one segment, read and
// digest-checked: their frames back to back in data, in file order.
type loadChunk struct {
	data   []byte
	recs   []segRec
	format int // the segment's
}

// segLoad is one segment's pass at open: its chunks, then, once chunks is
// closed, the segment's valid length or the error that ended the pass.
type segLoad struct {
	chunks chan *loadChunk
	size   int64
	format int
	err    error
}

const (
	// loadAhead is how many segments an open reads at once: the one being
	// indexed and the next, read and digest-checked ahead of it.
	loadAhead = 2
	// chunkSize is the frame bytes a chunk gathers before it is handed on.
	chunkSize = 1 << 20
	// chunksAhead is how many chunks a segment's pass hands on ahead of
	// the indexing before it waits.
	chunksAhead = 2
)

// errStopped ends a segment pass the open no longer needs.
var errStopped = errors.New("ledger: segment pass stopped")

// loadAll indexes every segment in segment order, handing each first
// occurrence of a record to visit, if not nil, with the frame its digest
// was checked on (valid until visit returns): each record is read and
// hashed once. The next sealed
// segment is read and digest-checked ahead of the indexing, concurrently,
// so that hashing overlaps visit; what is held ahead is bounded by
// loadAhead, chunksAhead and chunkSize, not by the log. The first
// occurrence of a record wins and the lowest-numbered damaged segment is
// the one reported. The final segment, the only one a crash can tear, is
// read last, once every sealed one proved intact.
func (b *FileBackend) loadAll(names []string, visit func(h Hash, frame []byte) error) error {
	last := len(names) - 1
	loads := make([]*segLoad, len(names))
	stop := make(chan struct{})
	// Chunks go back to the passes once indexed, since visit keeps no
	// frame; the buffer holds every chunk the passes can have in flight.
	free := make(chan *loadChunk, loadAhead*(chunksAhead+2))
	var wg sync.WaitGroup
	start := func(i int) {
		sl := &segLoad{chunks: make(chan *loadChunk, chunksAhead)}
		loads[i] = sl
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(sl.chunks)
			sl.size, sl.format, sl.err = loadSegment(b.dir, i, b.segs[i].f, i == last, sl.chunks, free, stop)
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := range names {
		for j := i; j < min(i+loadAhead, last); j++ {
			if loads[j] == nil {
				start(j)
			}
		}
		if i == last {
			start(i)
		}
		sl := loads[i]
		for c := range sl.chunks {
			b.segs[i].format = c.format
			pos := 0
			for _, r := range c.recs {
				frame := c.data[pos : pos+r.loc.n]
				pos += r.loc.n
				if _, ok := b.index[r.h]; ok {
					continue
				}
				b.index[r.h] = r.loc
				if visit != nil {
					if err := visit(r.h, frame); err != nil {
						return err
					}
				}
			}
			select {
			case free <- c:
			default:
			}
		}
		if sl.err != nil {
			return fmt.Errorf("%s: %w", names[i], sl.err)
		}
		b.segs[i].size, b.segs[i].format = sl.size, sl.format
	}
	return nil
}

// loadSegment reads one segment front to back, digest-checks every record
// and hands the intact ones to out in chunks, taken from free when one is
// there. It returns the segment's valid length and format; a torn tail is
// truncated away iff last.
func loadSegment(dir string, seg int, f *os.File, last bool, out chan<- *loadChunk, free <-chan *loadChunk, stop <-chan struct{}) (int64, int, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := info.Size()
	hdr := make([]byte, len(segMagic))
	n, err := f.ReadAt(hdr, 0)
	if last && err == io.EOF && bytes.Equal(hdr[:n], segMagic[:n]) {
		// A roll interrupted between creating the file and writing (or
		// fsyncing) its magic: a torn tail holding no records. Finish the
		// roll the crash cut short.
		return int64(len(segMagic)), FormatNormalized, writeSegmentHeader(f, dir)
	}
	format := segFormat(hdr)
	if err != nil || format == 0 {
		return 0, 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	c := newChunk(free)
	send := func() error {
		c.format = format
		select {
		case out <- c:
		case <-stop:
			return errStopped
		}
		c = newChunk(free)
		return nil
	}
	at, err := readRecords(f, size, func(at int64, frame []byte, digest Hash) error {
		if hashFrame(frame) != digest {
			// A complete-looking record with a bad digest at the very tail of
			// the final segment is still a crash footprint: the length prefix
			// can land before the frame bytes when nothing was fsynced.
			if last && at+4+int64(len(frame))+wire32 == size {
				return errTorn
			}
			return fmt.Errorf("%w: digest mismatch at offset %d", ErrCorrupt, at)
		}
		if len(c.data) > 0 && len(c.data)+len(frame) > chunkSize {
			if err := send(); err != nil {
				return err
			}
		}
		c.data = append(c.data, frame...)
		c.recs = append(c.recs, segRec{h: digest, loc: recLoc{seg: seg, off: at + 4, n: len(frame)}})
		return nil
	})
	if err == errTorn && last {
		size, err = at, f.Truncate(at)
	} else if err == errTorn {
		err = fmt.Errorf("%w: torn record at offset %d of a non-final segment", ErrCorrupt, at)
	}
	if err == nil && len(c.recs) > 0 {
		err = send()
	}
	return size, format, err
}

// newChunk returns an empty chunk, reusing one from free if there is one.
func newChunk(free <-chan *loadChunk) *loadChunk {
	select {
	case c := <-free:
		c.data, c.recs = c.data[:0], c.recs[:0]
		return c
	default:
		return &loadChunk{data: make([]byte, 0, chunkSize)}
	}
}

// errTorn reports a record that runs past the end of its segment.
var errTorn = fmt.Errorf("%w: torn record", ErrCorrupt)

// readRecords walks the records of a segment of the given size front to
// back through one buffered reader, reusing one frame buffer: fn gets each
// record's offset, frame (valid until fn returns) and stored digest. On
// error it returns the offset of the record it stopped at; a record that
// runs past size is errTorn.
func readRecords(f *os.File, size int64, fn func(at int64, frame []byte, digest Hash) error) (int64, error) {
	at := int64(len(segMagic))
	br := bufio.NewReaderSize(io.NewSectionReader(f, at, size-at), readBufSize)
	var hdr [4]byte
	var frame []byte
	var digest Hash
	for at < size {
		if size-at < 4 {
			return at, errTorn
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return at, err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		if n > maxFrameLen {
			return at, fmt.Errorf("%w: frame length %d at offset %d", ErrCorrupt, n, at)
		}
		if at+4+n+wire32 > size {
			return at, errTorn
		}
		if int64(cap(frame)) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return at, err
		}
		if _, err := io.ReadFull(br, digest[:]); err != nil {
			return at, err
		}
		if err := fn(at, frame, digest); err != nil {
			return at, err
		}
		at += 4 + n + wire32
	}
	return at, nil
}

const wire32 = 32 // stored digest width

// segName formats the ordinal segment path.
func (b *FileBackend) segName(i int) string {
	return filepath.Join(b.dir, fmt.Sprintf("%08d.seg", i))
}

// rollLocked writes the tail into the active segment, fsyncs and retires
// it, and starts the next one. A failed roll removes the file it created; a
// failed tail write or fsync (of the old segment, or of the directory entry
// of the new one) is sticky.
func (b *FileBackend) rollLocked() error {
	if n := len(b.segs); n > 0 {
		if err := b.writeTailLocked(); err != nil {
			return err
		}
		if err := b.segs[n-1].f.Sync(); err != nil {
			b.syncErr = err
			return err
		}
	}
	name := b.segName(len(b.segs))
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := writeSegmentHeader(f, b.dir); err != nil {
		b.syncErr = err
		return errors.Join(err, f.Close(), os.Remove(name))
	}
	b.segs = append(b.segs, segment{f: f, size: int64(len(segMagic)), format: FormatNormalized})
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

// Put appends one record to the active segment's tail.
func (b *FileBackend) Put(h Hash, frame []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("ledger: backend closed")
	}
	if b.syncErr != nil {
		return b.syncErr
	}
	if _, ok := b.index[h]; ok {
		return nil
	}
	if last := b.segs[len(b.segs)-1]; last.format < FormatNormalized || last.size >= b.segSize {
		if err := b.rollLocked(); err != nil {
			return err
		}
	}
	n := 4 + len(frame) + wire32
	if len(b.tail) > 0 && len(b.tail)+n > tailMax {
		if err := b.writeTailLocked(); err != nil {
			return err
		}
	}
	seg := len(b.segs) - 1
	active := &b.segs[seg]
	b.tail = binary.LittleEndian.AppendUint32(b.tail, uint32(len(frame)))
	b.tail = append(b.tail, frame...)
	b.tail = append(b.tail, h[:]...)
	b.index[h] = recLoc{seg: seg, off: active.size + 4, n: len(frame)}
	active.size += int64(n)
	b.dirty = true
	b.writeGen++
	return nil
}

// writeTailLocked writes the tail at the end of the active segment's file
// with one write. A failure is sticky: the file may now end in a torn
// record, and the records in the tail are not on disk.
func (b *FileBackend) writeTailLocked() error {
	if len(b.tail) == 0 {
		return nil
	}
	active := b.segs[len(b.segs)-1]
	if _, err := active.f.WriteAt(b.tail, active.size-int64(len(b.tail))); err != nil {
		b.syncErr = err
		return err
	}
	b.tail = b.tail[:0]
	return nil
}

// Get returns the envelope for h: a copy from the tail if it is not yet
// written, else one pread. The lock covers only the index lookup (and the
// tail copy).
func (b *FileBackend) Get(h Hash) ([]byte, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("ledger: backend closed")
	}
	loc, ok := b.index[h]
	if !ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("ledger: record %s not found", h.Short())
	}
	sg := b.segs[loc.seg]
	if at := loc.off - (sg.size - int64(len(b.tail))); loc.seg == len(b.segs)-1 && at >= 0 {
		frame := append([]byte(nil), b.tail[at:at+int64(loc.n)]...)
		b.mu.Unlock()
		return frame, nil
	}
	b.mu.Unlock()
	frame := make([]byte, loc.n)
	if _, err := sg.f.ReadAt(frame, loc.off); err != nil {
		return nil, err
	}
	return frame, nil
}

// Scan writes the tail, then visits every indexed record in append order,
// reading the segments front to back: a record is visited where the index
// places it, so a duplicate (a later occurrence) and a forgotten record are
// skipped. The frame passed to fn is only valid until fn returns.
func (b *FileBackend) Scan(fn func(h Hash, frame []byte) error) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("ledger: backend closed")
	}
	if err := b.writeTailLocked(); err != nil {
		b.mu.Unlock()
		return err
	}
	segs := append([]segment(nil), b.segs...)
	b.mu.Unlock()
	for i, sg := range segs {
		_, err := readRecords(sg.f, sg.size, func(at int64, frame []byte, digest Hash) error {
			b.mu.Lock()
			loc, ok := b.index[digest]
			b.mu.Unlock()
			if !ok || loc.seg != i || loc.off != at+4 {
				return nil
			}
			return fn(digest, frame)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync writes the tail and fsyncs the active segment. The write holds the
// backend lock, so the file stays a prefix of the append order; the fsync
// itself runs outside it: Sync is the settle-path durability barrier, and a
// pipelined stream appends the next load's evidence while the previous
// load's settle syncs — holding the lock through a multi-millisecond fsync
// would serialize the two. A Put racing the fsync lands in the tail for the
// next barrier; dirty is only cleared when no Put landed while the fsync
// ran.
func (b *FileBackend) Sync() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("ledger: backend closed")
	}
	if b.syncErr != nil || !b.dirty {
		b.mu.Unlock()
		return b.syncErr
	}
	if err := b.writeTailLocked(); err != nil {
		b.mu.Unlock()
		return err
	}
	f := b.segs[len(b.segs)-1].f
	gen := b.writeGen
	b.mu.Unlock()
	err := f.Sync()
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil && b.syncErr == nil {
		b.syncErr = err
	}
	if b.syncErr != nil {
		// This fsync failed, or a concurrent one did: a success here proves
		// nothing about the pages that one lost.
		return b.syncErr
	}
	if b.writeGen == gen && !b.closed {
		b.dirty = false
	}
	return nil
}

// Close writes the tail, fsyncs, and releases every segment handle. A
// backend with a sticky failure returns it instead of writing or fsyncing
// again; otherwise the first error of the write, the fsync and the handle
// closes is returned.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	first := b.syncErr
	if first == nil && b.dirty {
		first = b.writeTailLocked()
		if first == nil {
			first = b.segs[len(b.segs)-1].f.Sync()
		}
	}
	if err := b.closeAll(); first == nil {
		first = err
	}
	b.closed = true
	return first
}

// closeAll closes every segment handle and returns the first close error.
func (b *FileBackend) closeAll() error {
	var first error
	for _, sg := range b.segs {
		if err := sg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.segs = nil
	return first
}

// Format reports the format of the segment h's record sits in, or
// FormatNormalized for a record it does not hold.
func (b *FileBackend) Format(h Hash) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if loc, ok := b.index[h]; ok {
		return b.segs[loc.seg].format
	}
	return FormatNormalized
}

// Forget drops hs from the index; their records stay in the log.
func (b *FileBackend) Forget(hs []Hash) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, h := range hs {
		delete(b.index, h)
	}
}

// Len reports the number of indexed records.
func (b *FileBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.index)
}
