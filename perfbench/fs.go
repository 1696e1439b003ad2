package main

import (
	"sync/atomic"
	"time"

	"pstore/internal/wal"
)

// ioStats are the counters a timingFS keeps for one data directory.
type ioStats struct {
	writeBytes atomic.Int64
	readBytes  atomic.Int64
	syncs      atomic.Int64
	syncMs     sampler
}

// ioSnapshot is a point-in-time copy of the counters, for deltas over the
// timed window.
type ioSnapshot struct {
	writeBytes, readBytes, syncs int64
	syncSamples                  int
}

func (s *ioStats) snapshot() ioSnapshot {
	return ioSnapshot{
		writeBytes:  s.writeBytes.Load(),
		readBytes:   s.readBytes.Load(),
		syncs:       s.syncs.Load(),
		syncSamples: s.syncMs.count(),
	}
}

// syncP50Since is the median fsync time of the syncs after the snapshot.
func (s *ioStats) syncP50Since(from ioSnapshot) float64 {
	s.syncMs.mu.Lock()
	tail := append([]float64(nil), s.syncMs.v[from.syncSamples:]...)
	s.syncMs.mu.Unlock()
	return median(tail)
}

// timingFS is a wal.FS that passes every call to the wrapped FS unchanged
// and counts the bytes read and written and the time each Sync takes.
type timingFS struct {
	inner wal.FS
	st    *ioStats
}

func (t timingFS) MkdirAll(dir string) error            { return t.inner.MkdirAll(dir) }
func (t timingFS) ReadDir(dir string) ([]string, error) { return t.inner.ReadDir(dir) }
func (t timingFS) Rename(oldname, newname string) error { return t.inner.Rename(oldname, newname) }
func (t timingFS) Remove(name string) error             { return t.inner.Remove(name) }
func (t timingFS) Size(name string) (int64, error)      { return t.inner.Size(name) }

func (t timingFS) Create(name string) (wal.File, error) {
	f, err := t.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return timingFile{f, t.st}, nil
}

func (t timingFS) Open(name string) (wal.File, error) {
	f, err := t.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return timingFile{f, t.st}, nil
}

type timingFile struct {
	inner wal.File
	st    *ioStats
}

func (f timingFile) Read(p []byte) (int, error) {
	n, err := f.inner.Read(p)
	f.st.readBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Write(p []byte) (int, error) {
	n, err := f.inner.Write(p)
	f.st.writeBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.inner.Sync()
	f.st.syncMs.addDur(time.Since(start))
	f.st.syncs.Add(1)
	return err
}

func (f timingFile) Close() error { return f.inner.Close() }
