package hetgraph

// Hooks for the external tests of this package, which use generated
// graphs from internal/dataset (a package that imports this one).
var (
	Figure2Core    = figure2Core
	ProjectFromGen = project
)
