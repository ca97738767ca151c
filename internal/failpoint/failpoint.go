// Package failpoint is a tiny fault-injection harness for tests. Code
// under test calls Inject at interesting sites (commit, cache install,
// accept, read, write); a test or an operator arms a
// site with a failure spec and the site then errors, delays, or both,
// with an optional probability.
//
// The harness is compiled out by default: without the "failpoint"
// build tag, Inject is a no-op that returns nil and the compiler
// inlines it away, so production binaries pay nothing for the hooks.
// Build with -tags failpoint to compile the armed implementation, then
// arm sites programmatically (Arm) or through the environment:
//
//	OFMTL_FAILPOINTS="commit=error:0.02;conn-read=delay:5ms:0.1"
//
// Spec grammar, per site:
//
//	error            fail every pass
//	error:P          fail with probability P in (0,1]
//	delay:D          sleep D (a time.ParseDuration string) every pass
//	delay:D:P        sleep D with probability P
//	delay-error:D    sleep D, then fail
//	delay-error:D:P  sleep D then fail, with probability P
//
// A triggered error is ErrInjected (wrapped with the site name), so
// callers under test can distinguish injected faults from real ones.
package failpoint

import "errors"

// ErrInjected is the sentinel every triggered failpoint error wraps.
var ErrInjected = errors.New("failpoint: injected fault")

// EnvFailpoints is the environment variable the armed build parses at
// startup: a semicolon-separated list of site=spec assignments.
const EnvFailpoints = "OFMTL_FAILPOINTS"

// Well-known site names. Sites are plain strings — these constants
// only centralise the names the repository's own hooks use.
const (
	// SiteCommit fires inside Tx.Commit after the apply loop, before
	// the transaction is counted committed (the rollback path runs).
	SiteCommit = "commit"
	// SiteCacheInstall fires at flow-cache installs (either tier).
	SiteCacheInstall = "cache-install"
	// SiteAccept fires in the server accept loop, per accepted
	// connection (an injected error closes that connection).
	SiteAccept = "accept"
	// SiteConnRead fires per server-side connection read.
	SiteConnRead = "conn-read"
	// SiteConnWrite fires per server-side connection write.
	SiteConnWrite = "conn-write"
	// SiteMigrationBuild fires per replayed rule while an auto-backend
	// migration builds its replacement backend off-path (an injected
	// error aborts the build; the incumbent keeps serving).
	SiteMigrationBuild = "migration-build"
	// SiteMigrationCommit fires after a migration's replacement backend
	// is fully built, just before the swap is published (an injected
	// error discards the build; the incumbent keeps serving).
	SiteMigrationCommit = "migration-commit"
)
