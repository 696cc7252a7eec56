package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
)

// CrashFS is the crash-injection shim behind the recovery harness: an
// in-memory FS that journals every mutation at byte granularity, so a test
// can replay the journal up to ANY clock tick and materialise exactly the
// state a crash at that instant could leave. It extends iomodel's fault idiom
// (deterministic seeded fates) to the write path: an optional schedule makes
// writes land short and syncs fail, both drawn purely from (Seed, operation
// ordinal) so a failing run replays bit-identically.
//
// The durability model is per-file sequential persistence plus directory
// journaling. Within one file, bytes persist in the order written; a crash
// at tick c keeps, in the optimistic view, every byte written before c (the
// current write torn at c), and in the pessimistic view only the prefix
// covered by the last successful Sync. Directory entries (Create, Rename,
// Remove) become durable only at SyncDir: the pessimistic view rolls
// unsynced renames back — the crash-after-rename-before-dir-sync case. Real
// filesystems may land anywhere between the two views, so the harness
// asserts recovery invariants under both.
type CrashFS struct {
	mu     sync.Mutex
	clock  int64
	nextID int64
	events []Event
	names  map[string]int64
	objs   map[int64]*cfile
	faults FaultSchedule
	opSeq  uint64 // fault-draw ordinal
	short  int
	fsyncs int
}

type cfile struct{ data []byte }

// FaultSchedule is a seeded write-side fault schedule for CrashFS.
// Probabilities are per operation, in parts per ten thousand.
type FaultSchedule struct {
	Seed int64
	// ShortWritePer10k makes a Write persist only a prefix and fail.
	ShortWritePer10k int
	// FailSyncPer10k makes a file Sync fail without advancing durability.
	FailSyncPer10k int
	// FailDirSyncPer10k makes SyncDir fail without making entries durable.
	FailDirSyncPer10k int
}

// ErrInjected is wrapped by every fault CrashFS injects.
var ErrInjected = errors.New("wal: injected fault")

// EventKind enumerates journal entries.
type EventKind int

const (
	// EvSeed is a pre-existing fully durable file (content and entry).
	EvSeed EventKind = iota
	EvCreate
	EvWrite
	EvSync
	EvResume
	EvRename
	EvRemove
	EvSyncDir
)

// Event is one journaled mutation. A write of n bytes occupies n clock
// ticks — one per byte, so crashes tear records at every byte boundary —
// and every other event occupies one tick.
type Event struct {
	Kind  EventKind
	Name  string // Create/Seed/Resume/Remove, Rename source
	To    string // Rename target
	ID    int64  // file object identity (stable across Rename)
	Data  []byte // Write payload / Seed contents
	Size  int64  // Resume truncation size
	Start int64  // clock at which the event begins
}

func (e Event) width() int64 {
	if e.Kind == EvWrite && len(e.Data) > 0 {
		return int64(len(e.Data))
	}
	return 1
}

// NewCrashFS returns an empty fault-free CrashFS.
func NewCrashFS() *CrashFS {
	return &CrashFS{names: make(map[string]int64), objs: make(map[int64]*cfile)}
}

// SetFaults installs a seeded fault schedule (replacing any previous one).
func (c *CrashFS) SetFaults(fs FaultSchedule) {
	c.mu.Lock()
	c.faults = fs
	c.mu.Unlock()
}

// Seed installs name as a pre-existing, fully durable file.
func (c *CrashFS) Seed(name string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.newIDLocked()
	c.objs[id] = &cfile{data: append([]byte(nil), data...)}
	c.names[name] = id
	c.appendLocked(Event{Kind: EvSeed, Name: name, ID: id, Data: append([]byte(nil), data...)})
}

// Clock returns the current journal clock; crash points are ticks in
// [0, Clock()].
func (c *CrashFS) Clock() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// Events returns the journal. The returned slice (and its payloads) must be
// treated as read-only.
func (c *CrashFS) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// ShortWrites and FailedSyncs report injected fault counts.
func (c *CrashFS) ShortWrites() int { c.mu.Lock(); defer c.mu.Unlock(); return c.short }

// FailedSyncs counts injected Sync and SyncDir failures.
func (c *CrashFS) FailedSyncs() int { c.mu.Lock(); defer c.mu.Unlock(); return c.fsyncs }

func (c *CrashFS) newIDLocked() int64 {
	c.nextID++
	return c.nextID
}

func (c *CrashFS) appendLocked(ev Event) {
	ev.Start = c.clock
	c.clock += ev.width()
	c.events = append(c.events, ev)
}

// smix is the splitmix64 finalizer (the iomodel fault schedule's draw function).
func smix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawLocked decides one seeded fate; h is the raw draw for secondary
// choices (e.g. the torn length of a short write).
func (c *CrashFS) drawLocked(per10k int, salt uint64) (hit bool, h uint64) {
	c.opSeq++
	if per10k <= 0 {
		return false, 0
	}
	h = smix(uint64(c.faults.Seed) ^ smix(c.opSeq^salt))
	return h%10000 < uint64(per10k), h
}

const (
	saltShortWrite uint64 = 0x73686f7274777274 // "shortwrt"
	saltFailSync   uint64 = 0x6661696c73796e63 // "failsync"
	saltFailDir    uint64 = 0x6661696c64697273 // "faildirs"
)

// Create creates or truncates name. Truncation installs a fresh object: the
// previous content survives only through a not-yet-dir-synced name binding.
func (c *CrashFS) Create(name string) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.newIDLocked()
	c.objs[id] = &cfile{}
	c.names[name] = id
	c.appendLocked(Event{Kind: EvCreate, Name: name, ID: id})
	return &crashFile{fs: c, id: id}, nil
}

// OpenResume opens name for appending at size, truncating beyond it.
func (c *CrashFS) OpenResume(name string, size int64) (File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.names[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	f := c.objs[id]
	if size < 0 || size > int64(len(f.data)) {
		return nil, fmt.Errorf("wal: resume %s at %d, file holds %d bytes", name, size, len(f.data))
	}
	f.data = f.data[:size]
	c.appendLocked(Event{Kind: EvResume, Name: name, ID: id, Size: size})
	return &crashFile{fs: c, id: id}, nil
}

// ReadFile returns a copy of name's current (optimistic-view) contents.
func (c *CrashFS) ReadFile(name string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.names[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), c.objs[id].data...), nil
}

// Rename moves oldname over newname. The binding becomes durable at SyncDir.
func (c *CrashFS) Rename(oldname, newname string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.names[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	c.names[newname] = id
	delete(c.names, oldname)
	c.appendLocked(Event{Kind: EvRename, Name: oldname, To: newname, ID: id})
	return nil
}

// Remove unlinks name.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.names[name]
	if !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	c.appendLocked(Event{Kind: EvRemove, Name: name, ID: id})
	delete(c.names, name)
	return nil
}

// SyncDir makes the current name table durable. CrashFS models a single
// directory, so dir is ignored.
func (c *CrashFS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit, _ := c.drawLocked(c.faults.FailDirSyncPer10k, saltFailDir); hit {
		c.fsyncs++
		return fmt.Errorf("wal: sync dir %s: %w", dir, ErrInjected)
	}
	c.appendLocked(Event{Kind: EvSyncDir})
	return nil
}

var _ FS = (*CrashFS)(nil)

type crashFile struct {
	fs *CrashFS
	id int64
}

func (f *crashFile) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(p)
	var err error
	if hit, h := c.drawLocked(c.faults.ShortWritePer10k, saltShortWrite); hit {
		n = int(h>>13) % (len(p) + 1)
		c.short++
		err = fmt.Errorf("wal: short write (%d of %d bytes): %w", n, len(p), ErrInjected)
	}
	if n > 0 {
		obj := c.objs[f.id]
		obj.data = append(obj.data, p[:n]...)
		c.appendLocked(Event{Kind: EvWrite, ID: f.id, Data: append([]byte(nil), p[:n]...)})
	}
	return n, err
}

func (f *crashFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit, _ := c.drawLocked(c.faults.FailSyncPer10k, saltFailSync); hit {
		c.fsyncs++
		return fmt.Errorf("wal: sync: %w", ErrInjected)
	}
	c.appendLocked(Event{Kind: EvSync, ID: f.id})
	return nil
}

func (f *crashFile) Close() error { return nil }

// StateAt replays a CrashFS journal up to (but excluding) clock tick upTo
// and returns the surviving files. With keepUnsynced set it returns the
// optimistic crash outcome: every byte written before upTo persists, the
// in-flight write torn at the crash tick. Without it, the pessimistic
// outcome: only bytes covered by a successful Sync, under the name table of
// the last SyncDir (unsynced creates vanish, unsynced renames roll back).
func StateAt(events []Event, upTo int64, keepUnsynced bool) map[string][]byte {
	type rf struct {
		data   []byte
		synced int
	}
	objs := make(map[int64]*rf)
	live := make(map[string]int64)
	durable := make(map[string]int64)
	for _, ev := range events {
		if ev.Start >= upTo {
			break
		}
		switch ev.Kind {
		case EvSeed:
			f := &rf{data: append([]byte(nil), ev.Data...)}
			f.synced = len(f.data)
			objs[ev.ID] = f
			live[ev.Name] = ev.ID
			durable[ev.Name] = ev.ID
		case EvCreate:
			objs[ev.ID] = &rf{}
			live[ev.Name] = ev.ID
		case EvWrite:
			n := int64(len(ev.Data))
			if ev.Start+n > upTo {
				n = upTo - ev.Start // torn mid-write
			}
			f := objs[ev.ID]
			f.data = append(f.data, ev.Data[:n]...)
		case EvSync:
			f := objs[ev.ID]
			f.synced = len(f.data)
		case EvResume:
			f := objs[ev.ID]
			f.data = f.data[:ev.Size]
			if f.synced > int(ev.Size) {
				f.synced = int(ev.Size)
			}
		case EvRename:
			live[ev.To] = live[ev.Name]
			delete(live, ev.Name)
		case EvRemove:
			delete(live, ev.Name)
		case EvSyncDir:
			durable = make(map[string]int64, len(live))
			for n, id := range live {
				durable[n] = id
			}
		}
	}
	out := make(map[string][]byte)
	if keepUnsynced {
		for name, id := range live {
			out[name] = append([]byte(nil), objs[id].data...)
		}
		return out
	}
	for name, id := range durable {
		f := objs[id]
		out[name] = append([]byte(nil), f.data[:f.synced]...)
	}
	return out
}
