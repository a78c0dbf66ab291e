package main

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"openbi/internal/core"
	"openbi/internal/kb"
	"openbi/internal/provenance"
	"openbi/internal/server"
)

// cmdServe runs the HTTP advice service: the paper's advisor as a network
// front end. The knowledge base at -kb is loaded at startup (when present)
// and can be hot-swapped at any time with POST /v1/kb/reload without
// dropping in-flight requests. SIGINT/SIGTERM drain gracefully within
// -drain. With -require-manifest every KB — the startup one included —
// must carry a valid provenance manifest; with -manifest-pub the manifest
// must additionally be signed by exactly that key.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	kbPath := fs.String("kb", "kb.json", "knowledge base path (loaded at startup if present; reload target)")
	cacheSize := fs.Int("cache", 1024, "advice LRU cache entries (0 disables)")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond, "micro-batching window for concurrent advise calls (0 = no added latency)")
	batchMax := fs.Int("batch-max", 64, "max advise calls scored in one batch")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "deadline for an advise call waiting on its scoring batch, and for a request waiting in the admission queue before it is shed with 429")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown drain deadline")
	maxInflight := fs.Int("max-inflight", 64, "admission control: concurrent advise/profile calls before queueing (0 disables)")
	queueDepth := fs.Int("queue-depth", -1, "admission control: bounded wait queue past max-inflight; excess is shed with 429 (-1 = max-inflight)")
	requireManifest := fs.Bool("require-manifest", false, "refuse any KB (startup or reload) without a verified provenance manifest")
	manifestPub := fs.String("manifest-pub", "", "ed25519 public key file every manifest must be signed by (see openbi kb keygen)")
	fs.Parse(args)

	var pub ed25519.PublicKey
	if *manifestPub != "" {
		var err error
		pub, err = provenance.LoadPublicKeyFile(*manifestPub)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}

	eng, err := core.New()
	if err != nil {
		return err
	}
	var startupManifest *provenance.Manifest
	switch doc, readErr := os.ReadFile(*kbPath); {
	case readErr == nil:
		if err := eng.LoadKB(bytes.NewReader(doc)); err != nil {
			return fmt.Errorf("serve: loading %s: %w", *kbPath, err)
		}
		startupManifest, err = verifyStartupManifest(doc, *kbPath, *requireManifest, pub)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		fmt.Printf("loaded knowledge base (%d records) from %s\n", eng.KB().Len(), *kbPath)
		if startupManifest != nil {
			fmt.Printf("manifest verified (merkle root %s)\n", startupManifest.MerkleRoot)
		}
	case os.IsNotExist(readErr):
		// A missing KB is a legitimate cold start (reload can supply one
		// later); any other open failure is a real fault to surface.
		fmt.Fprintf(os.Stderr, "serve: %s not found; advise returns 503 empty_kb until POST /v1/kb/reload\n", *kbPath)
	default:
		return fmt.Errorf("serve: opening %s: %w", *kbPath, readErr)
	}

	opts := []server.Option{
		server.WithKBPath(*kbPath),
		server.WithCacheSize(*cacheSize),
		server.WithBatchWindow(*batchWindow),
		server.WithBatchMaxSize(*batchMax),
		server.WithRequestTimeout(*reqTimeout),
		server.WithDrainTimeout(*drain),
		server.WithMaxInflight(*maxInflight),
	}
	if *maxInflight > 0 && *queueDepth >= 0 {
		opts = append(opts, server.WithQueueDepth(*queueDepth))
	}
	if *requireManifest {
		opts = append(opts, server.WithManifestRequired())
	}
	if pub != nil {
		opts = append(opts, server.WithManifestKey(pub))
	}
	if startupManifest != nil {
		opts = append(opts, server.WithManifest(startupManifest))
	}
	srv, err := server.New(eng, opts...)
	if err != nil {
		return err
	}

	ctx, cancel := runContext(0)
	defer cancel()
	fmt.Printf("serving advice on %s (POST /v1/advise, POST /v1/profile, GET /v1/kb, POST /v1/kb/reload, GET /v1/metrics, GET /healthz)\n", *addr)
	return srv.ListenAndServe(ctx, *addr)
}

// verifyStartupManifest applies the same policy to the startup KB that the
// reload endpoint applies to hot-swaps: verify the manifest beside the KB
// when it exists, insist on one when -require-manifest is set, and check
// the signature against a pinned key. Returns nil (no manifest, allowed)
// only when the manifest is absent and absence is tolerated.
func verifyStartupManifest(doc []byte, kbPath string, required bool, pub ed25519.PublicKey) (*provenance.Manifest, error) {
	manifestPath := kbPath + ".manifest"
	if _, err := os.Stat(manifestPath); err != nil {
		if os.IsNotExist(err) {
			if required {
				return nil, fmt.Errorf("-require-manifest is set but %s does not exist", manifestPath)
			}
			return nil, nil
		}
		return nil, err
	}
	m, err := provenance.LoadFile(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	base, err := kb.Load(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	if err := kb.VerifyManifest(m, doc, base); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	switch sigErr := m.VerifySignature(pub); {
	case sigErr == nil:
	case errors.Is(sigErr, provenance.ErrUnsigned) && pub == nil:
		fmt.Fprintf(os.Stderr, "serve: WARNING: %s is unsigned; integrity only, no authenticity\n", manifestPath)
	default:
		return nil, fmt.Errorf("%s: %w", manifestPath, sigErr)
	}
	return m, nil
}
