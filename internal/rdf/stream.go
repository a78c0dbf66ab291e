package rdf

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"

	"openbi/internal/oberr"
)

// TripleFunc receives one parsed triple from a streaming decoder. A
// non-nil return stops the stream immediately and is propagated to the
// caller. Unlike the batch readers, which load into a deduplicating
// Graph, a TripleFunc sees every syntactic triple, duplicates included —
// consumers that need set semantics (LODSketch, the stream projector)
// deduplicate themselves.
type TripleFunc func(Triple) error

// Stream decodes RDF from r in one pass, dispatching on format ("nt" /
// "n-triples" or "ttl" / "turtle"), and invokes fn for every triple. The
// decoder's memory is bounded by the longest single statement, not the
// graph: arbitrarily large documents stream at constant peak RSS. Parse
// failures match oberr.ErrBadSyntax; unknown formats match
// oberr.ErrUnsupportedFormat.
func Stream(r io.Reader, format string, fn TripleFunc) error {
	switch strings.ToLower(format) {
	case "nt", "ntriples", "n-triples":
		return StreamNTriples(r, fn)
	case "ttl", "turtle":
		return StreamTurtle(r, fn)
	default:
		return fmt.Errorf("rdf: %w",
			&oberr.UnsupportedFormatError{Input: "rdf stream", Format: format})
	}
}

// FileFormat names the Stream format of an RDF file by its extension,
// ignoring case: "nt" for .nt, "ttl" for .ttl, and "" for any other
// file.
func FileFormat(path string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".nt":
		return "nt"
	case ".ttl":
		return "ttl"
	}
	return ""
}

// StreamNTriples parses an N-Triples document line by line, holding only
// the current line in memory, and calls fn per triple. It accepts and
// rejects exactly the documents ReadNTriples does (same line grammar) and
// yields the same triples in the same order, duplicates included.
func StreamNTriples(r io.Reader, fn TripleFunc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		tr, err := parseNTriplesLine(line)
		if err != nil {
			return fmt.Errorf("rdf: %w",
				&oberr.SyntaxError{Format: "n-triples", Line: lineNo, Reason: err.Error()})
		}
		if err := fn(tr); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("rdf: reading n-triples: %w", err)
	}
	return nil
}

// StreamTurtle parses the Turtle subset ReadTurtle documents in one pass
// and calls fn per triple. It reads the stream one window at a time: the
// tokenizer stops before a token that the bytes after the window could
// still extend, and the parser runs on the tokens up to the last '.' that
// ends a statement. The tokens after it, and the prefix and base
// declarations, carry over to the next window. On a rejected document,
// triples from statements before the offending one may already have been
// delivered to fn.
func StreamTurtle(r io.Reader, fn TripleFunc) error {
	p := &turtleParser{prefixes: map[string]string{}, emit: func(tr Triple) error {
		if err := fn(tr); err != nil {
			return &consumerError{err} // keep it apart from parse errors
		}
		return nil
	}}
	var (
		buf  []byte    // bytes read but not yet tokenized
		toks []ttToken // tokens of the statement in flight
		line = 1
	)
	for eof := false; !eof; {
		// Read up to a window, but at least as much as is pending: a token
		// longer than what one Read returns is then rescanned O(log n)
		// times, not once per Read.
		want := max(1, len(buf))
		buf = slices.Grow(buf, max(turtleWindow, want))
		n, err := io.ReadAtLeast(r, buf[len(buf):cap(buf)], want)
		buf = buf[:len(buf)+n]
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			eof = true
		default:
			return fmt.Errorf("rdf: reading turtle: %w", err)
		}
		carried := len(toks) // none of them is a '.'
		var used int
		var lexErr error
		toks, used, line, lexErr = lexTurtle(toks, string(buf), line, eof)
		buf = buf[:copy(buf, buf[used:])]
		// Parse the complete statements, and at EOF the rest, before
		// reporting a lexing error, so the error does not depend on how
		// the reads split the document.
		end := len(toks)
		if !eof || lexErr != nil {
			for end > carried && toks[end-1].kind != ttDot {
				end--
			}
			if end == carried {
				end = 0
			}
		}
		p.toks, p.pos = toks[:end], 0
		if err := p.run(); err != nil {
			if ce, ok := err.(*consumerError); ok {
				return ce.err
			}
			return fmt.Errorf("rdf: %w", err)
		}
		if lexErr != nil {
			return fmt.Errorf("rdf: %w", lexErr)
		}
		toks = slices.Delete(toks, 0, end)
	}
	return nil
}

// consumerError marks an error returned by the caller's TripleFunc so it
// propagates unchanged instead of being retagged as a syntax error.
type consumerError struct{ err error }

func (e *consumerError) Error() string { return e.err.Error() }
