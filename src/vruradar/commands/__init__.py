"""One module per command of `vruradar.cli`, each with the helpers only it uses.

`cli.main` imports the module of the command it runs and calls its `run(args)`,
so that a command process compiles no other command's code.
"""
