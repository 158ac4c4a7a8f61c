module expertfind/bench

go 1.22

require expertfind v0.0.0

replace expertfind => ../
