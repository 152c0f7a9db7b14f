package obs

// LintExposition lets the external test that scrapes a dist.Server (which
// imports this package) use the lint.
var LintExposition = lintExposition
