// Package jsonlog is the durable JSON-lines file format under every
// journal in this module: the experiment checkpoint, fvcd's deployment
// journal, and the per-job band journals. A log is one header line
// followed by one record per line.
//
// # Decode rule
//
// Every line decodes with Decode: exactly one JSON document, with
// unknown object fields refused and nothing but whitespace after it.
//
// # Torn-tail rule
//
// A crash during an append can persist only a prefix of the appended
// bytes, and no strict prefix of a JSON document decodes. So Replay
// drops a final line that fails Decode as torn. A decode failure on any
// earlier line, or a record the caller rejects on any line, is
// corruption: those bytes were written whole, so something other than a
// crash damaged them.
//
// # Durability
//
// Log.Append writes a batch in one write call and fsyncs it before
// returning, and truncates the file back if either step fails, so a
// failed append never leaves a partial line for a later append to
// bury. Reopen cuts a torn tail and terminates an unterminated final
// line before the first append. WriteAtomic and Log.Rewrite replace a
// whole file so that a crash leaves either the old or the new content.
package jsonlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Decode decodes data, which must hold exactly one JSON document, into
// v. Unknown object fields and anything but whitespace after the
// document are errors. Besides every log line, the module's other
// strict inputs (the peers file, digest maps, registration bodies)
// decode with it.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// Replay decodes the log image data: its first line into an H passed to
// header, then every later non-blank line, in order, into an R passed
// to record. It returns the length of the intact prefix — data without
// a torn final line — which is where the next append must start.
//
// Every error Replay returns means the image is corrupt: an empty
// image, a header that fails to decode or that header rejects, a
// non-final line that fails to decode, or any line that record rejects.
func Replay[H, R any](data []byte, header func(H) error, record func(R) error) (int64, error) {
	if len(data) == 0 {
		return 0, errors.New("empty log")
	}
	line, rest, _ := bytes.Cut(data, []byte{'\n'})
	var h H
	if err := Decode(line, &h); err != nil {
		return 0, fmt.Errorf("bad header: %v", err)
	}
	if err := header(h); err != nil {
		return 0, fmt.Errorf("bad header: %w", err)
	}
	good := len(data) - len(rest)
	for n := 2; good < len(data); n++ {
		line, rest, _ = bytes.Cut(data[good:], []byte{'\n'})
		end := len(data) - len(rest)
		if len(bytes.TrimSpace(line)) > 0 {
			var r R
			if err := Decode(line, &r); err != nil {
				if end == len(data) {
					break // torn final line
				}
				return 0, fmt.Errorf("line %d: %v", n, err)
			}
			if err := record(r); err != nil {
				return 0, fmt.Errorf("line %d: %w", n, err)
			}
		}
		good = end
	}
	return int64(good), nil
}

// Log is an open log file that records of type R are appended to. It
// is not safe for concurrent use; every caller serializes its appends
// under its own lock.
type Log[R any] struct {
	path string
	f    *os.File // O_APPEND; nil once closed
	size int64
}

// Create creates the log at path, replacing any file there, with hdr as
// its header line, fsynced before Create returns. On failure the file
// is removed.
func Create[R any](path string, hdr any) (*Log[R], error) {
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("encode header: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log[R]{path: path, f: f}
	if err := l.write(append(line, '\n')); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return l, nil
}

// Reopen opens the log at path for appending after Replay accepted its
// first good bytes. A torn tail past good is truncated away, and an
// intact final line that lacks its newline gets one, so the next append
// starts on a fresh line instead of running onto the last record.
func Reopen[R any](path string, good int64) (*Log[R], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	l := &Log[R]{path: path, f: f, size: good}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail: %w", err)
	}
	last := []byte{'\n'}
	if good > 0 {
		if _, err := f.ReadAt(last, good-1); err != nil {
			f.Close()
			return nil, err
		}
	}
	if last[0] != '\n' {
		if err := l.write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("terminate final line: %w", err)
		}
	}
	return l, nil
}

// Append writes recs, one JSON line each, in a single write call and
// fsyncs the file. If the write or the fsync fails, the file is
// truncated back to its size before the call.
func (l *Log[R]) Append(recs ...R) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("encode record: %w", err)
		}
	}
	return l.write(buf.Bytes())
}

func (l *Log[R]) write(p []byte) error {
	if l.f == nil {
		return os.ErrClosed
	}
	if _, err := l.f.Write(p); err != nil {
		_ = l.f.Truncate(l.size) // best effort; the write error is what the caller must see
		return err
	}
	if err := l.f.Sync(); err != nil {
		_ = l.f.Truncate(l.size)
		return err
	}
	l.size += int64(len(p))
	return nil
}

// Rewrite replaces the whole file with data through WriteAtomic and
// moves the append handle onto the new file. If the new file cannot be
// opened the log is left closed, so later appends fail instead of
// landing in the replaced file.
func (l *Log[R]) Rewrite(data []byte) error {
	if l.f == nil {
		return os.ErrClosed
	}
	if err := WriteAtomic(l.path, data); err != nil {
		return err
	}
	l.f.Close() // the replaced inode; its content is superseded
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		l.f = nil
		return fmt.Errorf("reopen after rewrite: %w", err)
	}
	l.f, l.size = f, int64(len(data))
	return nil
}

// Size returns the file's size as this handle has written it.
func (l *Log[R]) Size() int64 { return l.size }

// Close closes the file. Closing a closed log does nothing.
func (l *Log[R]) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// WriteAtomic replaces the file at path with data: the bytes go to a
// temporary file in the same directory, which is fsynced and renamed
// over path, and then the directory is fsynced so the rename survives a
// power loss. A crash at any instant leaves either the old file or the
// new one under path, and a failed call leaves no temporary file.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Not every filesystem can fsync a directory; the rename itself has
	// already succeeded, so a failure here is not reported.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
